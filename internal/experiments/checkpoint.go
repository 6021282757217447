package experiments

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"

	"nmapsim/internal/server"
	"nmapsim/internal/workload"
)

// Sweep checkpointing: a journal of completed cell results keyed by spec
// hash, so a 10k-cell sweep killed mid-run resumes where it stopped
// instead of recomputing from scratch.
//
// Journal format v2: one record per line,
//
//	j2 <seq> <crc32c-hex> <payload>\n
//
// where <payload> is the v1 JSON object ("spec" = SpecHash, "result" =
// the full server.Result), <seq> is a monotonically increasing record
// number, and <crc32c-hex> is the CRC-32C (Castagnoli) of the payload
// bytes. The framing makes every class of journal damage detectable and
// recoverable, not just the torn final line a kill leaves:
//
//   - torn write (kill or ENOSPC mid-line): the payload is truncated, the
//     CRC cannot match, the line is dropped and the cell re-runs;
//   - bit-rot (any flipped byte in seq, CRC or payload): CRC mismatch,
//     line dropped, cell re-runs;
//   - duplicated line (a replayed or double-appended record): the repeated
//     sequence number identifies it and the duplicate is dropped;
//   - a dropped line shows up as a sequence-number gap in -fsck.
//
// Because every cell is a deterministic seeded run, dropping a damaged
// record is always safe: the cell recomputes byte-identically. v1 lines
// (bare JSON objects, no framing) are still loaded, so pre-v2 journals
// resume unchanged. Appends are fsynced per record; a failed or short
// write truncates the file back to the last good record so the tail
// never holds a half-written line, and the journal then turns read-only
// (ErrJournalWrite) so the sweep can finish and exit cleanly instead of
// fighting a dead disk.

// ErrJournalWrite marks journal persistence failures — disk full, I/O
// error, or a short write. The in-memory sweep is unaffected (results
// stay valid); only checkpoint durability is lost from that point on.
var ErrJournalWrite = errors.New("experiments: journal write error")

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// SpecHash returns a stable identity for a spec run under h — the
// journal key of the cell: the policy/idle pair, the full server
// configuration (processor and workload identified by name), and the
// fault/retry/audit/streaming defaults h folds in. Two specs hash equal
// iff they describe the same deterministic cell.
func (h *Harness) SpecHash(spec Spec) string {
	model, profile := "", ""
	cfg := spec.Cfg
	if cfg.Model != nil {
		model = cfg.Model.Name
	}
	if cfg.Profile != nil {
		profile = cfg.Profile.Name
	}
	cfg.Model, cfg.Profile = nil, nil
	sum := sha256.Sum256(fmt.Appendf(nil, "v1|%s|%s|%d|%+v|model=%s|profile=%s|%s|inj=%+v|retry=%s|audit=%v|stream=%v",
		spec.Policy, spec.Idle, spec.UserspaceP, spec.Thresholds,
		model, profile, keyedConfig(cfg), h.Faults, keyedRetry(h.Retry), h.Audit, h.Streaming))
	return hex.EncodeToString(sum[:16])
}

// retryZeros is what %+v printed for the retry loop's backoff and
// timeout cap while they were RetryConfig fields; every journaled spec
// left them zero.
const retryZeros = " Backoff:0 MaxTimeout:0ns"

// configZeros splices into a server.Config's %+v, before each anchor,
// the zero fields it printed while the burst pattern, kernel costs and
// network latencies were settable, so the journal keys do not move.
var configZeros = []struct{ anchor, zeros string }{
	{" VariableLevels:", " Pattern:{Period:0ns BurstFrac:0 Ramp:0ns}"},
	{" NICRing:", " Kernel:{PollBudget:0 MaxPollPasses:0 SoftirqTimeLimit:0ns IRQCycles:0" +
		" PollOverheadCycles:0 PerPktCycles:0 TxCleanCycles:0 TxCleanBudget:0 TickPeriod:0ns SockQCap:0}"},
	{" Warmup:", " NetLatency:0ns NetJitter:0ns"},
	{"} SockQCap:", retryZeros}, // the end of Retry
}

// keyedConfig prints cfg, whose Model and Profile are nil, as SpecHash
// keys it: %+v with the configZeros spliced in. Each anchor first
// occurs where its own top-level field begins: no field printed before
// that one can hold its text.
func keyedConfig(cfg server.Config) string {
	s := fmt.Sprintf("%+v", cfg)
	for _, z := range configZeros {
		s = strings.Replace(s, z.anchor, z.zeros+z.anchor, 1)
	}
	return s
}

// keyedRetry prints r as SpecHash keys it: %+v with retryZeros spliced
// in before the closing brace.
func keyedRetry(r workload.RetryConfig) string {
	return strings.TrimSuffix(fmt.Sprintf("%+v", r), "}") + retryZeros + "}"
}

type journalEntry struct {
	Spec   string          `json:"spec"`
	Result json.RawMessage `json:"result"`
}

// JournalFile is the sink a Journal appends to. *os.File satisfies it;
// the harness chaos injector wraps one to simulate disk-full and I/O
// errors without a real full disk.
type JournalFile interface {
	io.Writer
	io.Closer
	Sync() error
	Truncate(size int64) error
}

// Journal is an append-only record of completed sweep cells. lookup and
// record are safe for concurrent use by the worker pool.
type Journal struct {
	mu   sync.Mutex
	f    JournalFile
	done map[string]json.RawMessage
	// next is the sequence number the next record will carry.
	next uint64
	// off is the byte offset of the end of the last durably written
	// record — the truncation point when a write fails partway.
	off int64
	// werr is the sticky write error: once a write or sync fails the
	// journal is read-only and every later record returns it.
	werr error
	// load is the damage report from open time.
	load FsckReport
}

// FsckReport summarises a journal integrity scan: what loaded, what was
// damaged, and how. Damaged lines are never fatal — the loader drops
// them and the affected cells re-run deterministically — but -fsck
// surfaces them so an operator can tell bit-rot from a clean resume.
type FsckReport struct {
	// Empty reports a zero-byte journal: a distinct, healthy state (a
	// sweep that checkpointed nothing), not a damage class.
	Empty bool
	// Lines is the total number of (non-empty) lines scanned.
	Lines int
	// V1 and V2 count well-formed records by format version.
	V1, V2 int
	// Cells is the number of distinct cells the journal can serve.
	Cells int
	// Torn counts unparseable lines: truncated frames, malformed JSON,
	// or garbage — the residue of a kill or ENOSPC mid-write.
	Torn int
	// Blank counts whitespace-only lines. They carry no record and no
	// frame, so they are filed as their own damage class rather than
	// lumped in with torn writes: a blank line points at an editor or
	// concatenation accident, not a kill mid-write.
	Blank int
	// NoPayload counts v2 frames whose header parsed (seq and CRC both
	// well-formed) but that carry no payload bytes at all — a write cut
	// exactly at the frame/payload boundary, distinguishable from both a
	// torn frame and a payload that fails its CRC.
	NoPayload int
	// BadCRC counts v2 lines whose payload failed its checksum (bit-rot
	// or a torn payload that still parsed as a frame).
	BadCRC int
	// DupSeq counts v2 lines repeating an already-seen sequence number.
	DupSeq int
	// SeqGaps counts missing sequence numbers between the lowest and
	// highest seen — records that existed once but are gone.
	SeqGaps int
	// TornTail reports whether the file ended mid-line (no final
	// newline); OpenJournal truncates such a tail so appends never merge
	// into it.
	TornTail bool
}

// Clean reports whether the scan found no damage. Sequence gaps alone do
// not fail Clean when every gap is explained by a damaged line already
// counted (a torn line loses its sequence number too).
func (r FsckReport) Clean() bool {
	damaged := r.Torn + r.Blank + r.NoPayload + r.BadCRC + r.DupSeq
	if r.TornTail {
		return false
	}
	return damaged == 0 && r.SeqGaps == 0
}

// String renders the report in the one-screen form nmapsweep -fsck
// prints.
func (r FsckReport) String() string {
	var b strings.Builder
	if r.Empty {
		b.WriteString("journal: empty (zero bytes) — nothing checkpointed yet\n")
	} else {
		fmt.Fprintf(&b, "journal: %d line(s), %d cell(s) loadable (%d v2, %d v1)\n",
			r.Lines, r.Cells, r.V2, r.V1)
	}
	fmt.Fprintf(&b, "damage:  torn=%d blank=%d no-payload=%d bad-crc=%d dup-seq=%d seq-gaps=%d torn-tail=%v\n",
		r.Torn, r.Blank, r.NoPayload, r.BadCRC, r.DupSeq, r.SeqGaps, r.TornTail)
	if r.Clean() {
		b.WriteString("verdict: clean")
	} else {
		b.WriteString("verdict: damaged (damaged records are skipped on resume; the affected cells re-run deterministically)")
	}
	return b.String()
}

// scanJournal reads every line of a journal, verifying v2 frames and
// accepting v1 bare-JSON lines, and returns the loadable entries (later
// duplicates of a spec win, matching append order), the damage report,
// the highest v2 sequence number, and the byte offset of the end of the
// last complete line (the safe append/truncation point).
func scanJournal(r io.Reader) (entries map[string]json.RawMessage, rep FsckReport, maxSeq uint64, tail int64, err error) {
	entries = map[string]json.RawMessage{}
	seen := map[uint64]bool{}
	var minSeq uint64
	br := bufio.NewReaderSize(r, 1<<20)
	for {
		line, rerr := br.ReadBytes('\n')
		complete := rerr == nil
		if len(line) > 0 {
			if complete {
				tail += int64(len(line))
				line = line[:len(line)-1]
			} else {
				rep.TornTail = true
			}
			if len(line) > 0 {
				rep.Lines++
				switch {
				case !complete:
					rep.Torn++
				case len(bytes.TrimSpace(line)) == 0:
					// Whitespace-only line: no frame, no record. Its own
					// damage class — see FsckReport.Blank.
					rep.Blank++
				case line[0] == '{':
					// v1: bare JSON object, no framing. No CRC to check —
					// malformed JSON is the only detectable damage.
					var ent journalEntry
					if json.Unmarshal(line, &ent) != nil || ent.Spec == "" {
						rep.Torn++
						break
					}
					rep.V1++
					entries[ent.Spec] = append(json.RawMessage(nil), ent.Result...)
				default:
					seq, payload, verdict := parseV2Line(line)
					switch verdict {
					case v2Malformed:
						rep.Torn++
					case v2NoPayload:
						rep.NoPayload++
					case v2BadCRC:
						rep.BadCRC++
					}
					if verdict != v2OK {
						break
					}
					if seen[seq] {
						rep.DupSeq++
						break
					}
					var ent journalEntry
					if json.Unmarshal(payload, &ent) != nil || ent.Spec == "" {
						rep.Torn++
						break
					}
					if len(seen) == 0 || seq < minSeq {
						minSeq = seq
					}
					if seq > maxSeq {
						maxSeq = seq
					}
					seen[seq] = true
					rep.V2++
					entries[ent.Spec] = append(json.RawMessage(nil), ent.Result...)
				}
			}
		}
		if rerr != nil {
			if rerr != io.EOF {
				return nil, rep, 0, 0, rerr
			}
			break
		}
	}
	if len(seen) > 0 {
		rep.SeqGaps = int(maxSeq-minSeq+1) - len(seen)
	}
	rep.Cells = len(entries)
	rep.Empty = tail == 0 && !rep.TornTail && rep.Lines == 0
	return entries, rep, maxSeq, tail, nil
}

// v2Verdict classifies one v2 journal line.
type v2Verdict int

const (
	v2OK        v2Verdict = iota
	v2Malformed           // frame does not parse as "j2 <seq> <crc> ..."
	v2NoPayload           // header intact, zero payload bytes
	v2BadCRC              // payload present but fails its checksum
)

// parseV2Line splits a "j2 <seq> <crc> <payload>" frame. seq is only
// meaningful when the verdict is v2OK or v2NoPayload (the header
// parsed); payload only when v2OK.
func parseV2Line(line []byte) (seq uint64, payload []byte, verdict v2Verdict) {
	s := string(line)
	rest, found := strings.CutPrefix(s, "j2 ")
	if !found {
		return 0, nil, v2Malformed
	}
	seqStr, rest, found := strings.Cut(rest, " ")
	if !found {
		return 0, nil, v2Malformed
	}
	seq, err := strconv.ParseUint(seqStr, 10, 64)
	if err != nil {
		return 0, nil, v2Malformed
	}
	crcStr, payloadStr, hasPayload := strings.Cut(rest, " ")
	want, err := strconv.ParseUint(crcStr, 16, 32)
	if err != nil {
		return 0, nil, v2Malformed
	}
	if !hasPayload || payloadStr == "" {
		// "j2 <seq> <crc>" with nothing after: the write died exactly at
		// the frame/payload boundary.
		return seq, nil, v2NoPayload
	}
	p := []byte(payloadStr)
	if crc32.Checksum(p, crcTable) != uint32(want) {
		return seq, nil, v2BadCRC
	}
	return seq, p, v2OK
}

// OpenJournal opens (creating if absent) the journal at path and loads
// every intact entry already present. Damaged lines — torn writes,
// failed checksums, duplicated records — are skipped, not fatal: the
// affected cells simply re-run. A torn tail (kill mid-write) is
// truncated away so the next append starts on a fresh line.
func OpenJournal(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	j, err := NewJournal(f, f)
	if err != nil {
		f.Close()
		return nil, err
	}
	return j, nil
}

// NewJournal builds a journal that appends to f after loading existing
// entries from contents (pass nil for a fresh journal). When the loaded
// bytes end mid-line, the file is truncated back to the last complete
// line. The chaos harness uses this to interpose failing writers; the
// CLIs go through OpenJournal.
func NewJournal(f JournalFile, contents io.Reader) (*Journal, error) {
	j := &Journal{f: f, done: map[string]json.RawMessage{}}
	if contents != nil {
		entries, rep, maxSeq, tail, err := scanJournal(contents)
		if err != nil {
			return nil, err
		}
		j.done, j.load, j.next, j.off = entries, rep, maxSeq+1, tail
		if rep.TornTail {
			if err := f.Truncate(tail); err != nil {
				return nil, err
			}
		}
	}
	if j.next == 0 {
		j.next = 1
	}
	return j, nil
}

// FsckJournal scans the journal at path without modifying it and reports
// its integrity. Use `nmapsweep -fsck -checkpoint FILE`.
func FsckJournal(path string) (FsckReport, error) {
	f, err := os.Open(path)
	if err != nil {
		return FsckReport{}, err
	}
	defer f.Close()
	_, rep, _, _, err := scanJournal(f)
	return rep, err
}

// LoadReport returns the damage report from the scan OpenJournal ran.
func (j *Journal) LoadReport() FsckReport {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.load
}

// Len reports how many completed cells the journal holds.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.done)
}

// lookup returns the journaled result for a spec hash.
func (j *Journal) lookup(hash string) (server.Result, bool) {
	j.mu.Lock()
	raw, ok := j.done[hash]
	j.mu.Unlock()
	if !ok {
		return server.Result{}, false
	}
	var res server.Result
	if err := json.Unmarshal(raw, &res); err != nil {
		return server.Result{}, false
	}
	return res, true
}

// record appends one completed cell and syncs it to disk before
// returning, so a later kill cannot lose it. On a write or sync failure
// the file is truncated back to the last good record (the tail never
// holds a half-written line), the journal turns read-only, and this and
// every later record return an error wrapping ErrJournalWrite — the
// sweep itself continues; only durability is lost.
func (j *Journal) record(hash string, res server.Result) error {
	raw, err := json.Marshal(res)
	if err != nil {
		return err
	}
	payload, err := json.Marshal(journalEntry{Spec: hash, Result: raw})
	if err != nil {
		return err
	}
	crc := crc32.Checksum(payload, crcTable)
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.werr != nil {
		return j.werr
	}
	// The sequence number is assigned under the lock so concurrent
	// workers never interleave frames with reused numbers.
	line := fmt.Appendf(nil, "j2 %d %08x %s\n", j.next, crc, payload)
	n, err := j.f.Write(line)
	if err == nil && n < len(line) {
		err = io.ErrShortWrite
	}
	if err == nil {
		err = j.f.Sync()
	}
	if err != nil {
		// Best-effort removal of the partial line; if even the truncate
		// fails the CRC framing still guards the next reader.
		j.f.Truncate(j.off)
		j.werr = fmt.Errorf("%w: %v", ErrJournalWrite, err)
		return j.werr
	}
	j.off += int64(len(line))
	j.next++
	j.done[hash] = raw
	return nil
}

// writeErr returns the sticky write error that turned the journal
// read-only, or nil while it is still persisting records.
func (j *Journal) writeErr() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.werr
}

// Close closes the journal file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}
