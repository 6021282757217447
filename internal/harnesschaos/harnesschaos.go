// Package harnesschaos deterministically injects faults into the
// experiment harness itself — not the simulated datapath. Packages
// faults/fuzzer prove the *model* survives wire loss and core crashes;
// this package proves the *orchestration* survives its own failure
// modes: a sweep killed mid-write, a checkpoint journal with torn or
// bit-rotted lines, a cell that fails a few times before succeeding, a
// poison cell that never succeeds, and a disk that fills up mid-sweep.
//
// Every injector is deterministic (no randomness, no time): the
// package's tests re-run each faulted scenario and require the
// recovered sweep to be byte-identical to an unfaulted one. One of them
// does so end to end, killing a journaled nmapsweep process mid-run.
package harnesschaos

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"sync"

	"nmapsim/internal/experiments"
)

// --- Journal byte-level mutators -----------------------------------------
//
// These corrupt a journal file on disk the way real storage does:
// truncation (kill or ENOSPC mid-write), bit-rot (a flipped byte), and
// record duplication (a replayed append). The journal's CRC/sequence
// framing must detect each one and recover by re-running the affected
// cells.

// TruncateTail chops the last n bytes off the file — the torn trailing
// line a kill mid-write leaves behind.
func TruncateTail(path string, n int) error {
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	size := st.Size() - int64(n)
	if size < 0 {
		size = 0
	}
	return os.Truncate(path, size)
}

// lines splits the file into newline-terminated lines (the final
// fragment, if any, is its own line).
func lines(path string) ([][]byte, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out [][]byte
	for len(b) > 0 {
		i := bytes.IndexByte(b, '\n')
		if i < 0 {
			out = append(out, b)
			break
		}
		out = append(out, b[:i+1])
		b = b[i+1:]
	}
	return out, nil
}

// CorruptLine flips one byte in the middle of line n (0-based) —
// bit-rot that leaves the line well-formed enough to parse as a frame
// but fail its checksum.
func CorruptLine(path string, n int) error {
	ls, err := lines(path)
	if err != nil {
		return err
	}
	if n < 0 || n >= len(ls) {
		return fmt.Errorf("harnesschaos: line %d out of range (%d lines)", n, len(ls))
	}
	l := ls[n]
	if len(l) < 2 {
		return fmt.Errorf("harnesschaos: line %d too short to corrupt", n)
	}
	l[len(l)/2] ^= 0x20
	return writeLines(path, ls)
}

// DuplicateLine appends a copy of line n (0-based) at the end of the
// file — a replayed or double-flushed record the sequence numbers must
// catch.
func DuplicateLine(path string, n int) error {
	ls, err := lines(path)
	if err != nil {
		return err
	}
	if n < 0 || n >= len(ls) {
		return fmt.Errorf("harnesschaos: line %d out of range (%d lines)", n, len(ls))
	}
	dup := append([]byte(nil), ls[n]...)
	if len(dup) == 0 || dup[len(dup)-1] != '\n' {
		dup = append(dup, '\n')
	}
	ls = append(ls, dup)
	return writeLines(path, ls)
}

func writeLines(path string, ls [][]byte) error {
	var b bytes.Buffer
	for _, l := range ls {
		b.Write(l)
	}
	return os.WriteFile(path, b.Bytes(), 0o644)
}

// --- Flaky and poison cells ----------------------------------------------

// FailingCells builds a hook for experiments.Harness.CellFault: every
// cell matching match fails its first n attempts (n < 0: every attempt —
// a poison cell). Attempts are counted per hook, keyed by spec hash, so
// the injection is deterministic under any worker-pool interleaving.
func FailingCells(match func(experiments.Spec) bool, n int) func(experiments.Spec, int) error {
	var mu sync.Mutex
	fails := map[string]int{}
	return func(spec experiments.Spec, attempt int) error {
		if match != nil && !match(spec) {
			return nil
		}
		if n < 0 {
			return fmt.Errorf("harnesschaos: poison cell (attempt %d)", attempt)
		}
		key := new(experiments.Harness).SpecHash(spec)
		mu.Lock()
		defer mu.Unlock()
		if fails[key] >= n {
			return nil
		}
		fails[key]++
		return fmt.Errorf("harnesschaos: flaky cell, failure %d of %d", fails[key], n)
	}
}

// --- Simulated ENOSPC ----------------------------------------------------

// ErrNoSpace is the error a budget-exhausted ENOSPCFile returns —
// simulated "no space left on device".
var ErrNoSpace = errors.New("harnesschaos: simulated ENOSPC: no space left on device")

// ENOSPCFile wraps a journal file and fails writes once Budget bytes
// have been written through it, including the realistic worst case: the
// write that crosses the budget lands *partially* (a short write
// followed by the error), leaving a half-written line the journal must
// truncate away or its CRC framing must reject.
type ENOSPCFile struct {
	F      experiments.JournalFile
	Budget int64
}

var _ experiments.JournalFile = (*ENOSPCFile)(nil)

// Write writes through to the underlying file until the budget runs
// out; the crossing write is split so part of it lands on disk.
func (e *ENOSPCFile) Write(p []byte) (int, error) {
	if e.Budget <= 0 {
		return 0, ErrNoSpace
	}
	if int64(len(p)) <= e.Budget {
		n, err := e.F.Write(p)
		e.Budget -= int64(n)
		return n, err
	}
	n, err := e.F.Write(p[:e.Budget])
	e.Budget -= int64(n)
	if err != nil {
		return n, err
	}
	return n, ErrNoSpace
}

// Sync syncs the underlying file.
func (e *ENOSPCFile) Sync() error { return e.F.Sync() }

// Truncate truncates the underlying file and refunds nothing: a full
// disk stays full.
func (e *ENOSPCFile) Truncate(size int64) error { return e.F.Truncate(size) }

// Close closes the underlying file.
func (e *ENOSPCFile) Close() error { return e.F.Close() }
