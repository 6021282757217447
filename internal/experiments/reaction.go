package experiments

// Reaction-time analysis: the paper's central claim is that NMAP raises
// the V/F state at the *early part* of each burst while utilisation
// governors react only "in the middle or later part" (§3.2, Fig 2 vs
// Fig 9). This file turns that claim into a number: the per-burst delay
// from the first packet of a burst until the traced core first runs at
// P0.

// ReactionStats summarises the per-burst boost delays of a trace.
type ReactionStats struct {
	// PerBurstMs lists, for each detected burst, the delay (ms) from
	// burst start to the first 1ms bin at P0. A burst during which the
	// core never reached P0 contributes -1.
	PerBurstMs []float64
	// MeanMs and MaxMs summarise the bursts that did reach P0.
	MeanMs, MaxMs float64
	// Bursts is the number of bursts detected; Boosted how many reached
	// P0 at all.
	Bursts, Boosted int
}

// reactionTimes analyses a TraceFigure: burst starts are detected as a
// non-zero traffic bin following at least quietMs of zero-traffic bins,
// and the reaction is the distance to the next bin whose P-state is 0.
func (tf TraceFigure) reactionTimes(quietMs int) ReactionStats {
	if quietMs <= 0 {
		quietMs = 5
	}
	var out ReactionStats
	quiet := quietMs // count down from a full quiet window
	for i := 0; i < tf.Ms; i++ {
		traffic := tf.PktIntr[i] + tf.PktPoll[i]
		if traffic == 0 {
			if quiet < quietMs {
				quiet++
			}
			continue
		}
		if quiet >= quietMs {
			// Burst start at bin i: find the first P0 bin at or after it.
			out.Bursts++
			delay := -1.0
			for j := i; j < len(tf.PState) && j < tf.Ms; j++ {
				if tf.PState[j] == 0 {
					delay = float64(j - i)
					break
				}
				// Stop looking once the burst has clearly ended.
				if j > i && tf.PktIntr[j]+tf.PktPoll[j] == 0 {
					break
				}
			}
			out.PerBurstMs = append(out.PerBurstMs, delay)
			if delay >= 0 {
				out.Boosted++
				out.MeanMs += delay
				if delay > out.MaxMs {
					out.MaxMs = delay
				}
			}
		}
		quiet = 0
	}
	if out.Boosted > 0 {
		out.MeanMs /= float64(out.Boosted)
	}
	return out
}
