package experiments

import (
	"encoding/json"
	"io"

	"nmapsim/internal/server"
	"nmapsim/internal/workload"
)

// Record is the JSON-serialisable view of one run, for archiving
// experiment results and plotting with external tools.
type Record struct {
	App    string  `json:"app"`
	Policy string  `json:"policy"`
	Idle   string  `json:"idle"`
	Level  string  `json:"level,omitempty"`
	RPS    float64 `json:"rps,omitempty"`
	Seed   uint64  `json:"seed"`

	N           int     `json:"requests"`
	P50Ms       float64 `json:"p50_ms"`
	P95Ms       float64 `json:"p95_ms"`
	P99Ms       float64 `json:"p99_ms"`
	P999Ms      float64 `json:"p999_ms"`
	MaxMs       float64 `json:"max_ms"`
	SLOMs       float64 `json:"slo_ms"`
	Violated    bool    `json:"violated"`
	OverSLO     float64 `json:"frac_over_slo"`
	EnergyJ     float64 `json:"energy_j"`
	PowerW      float64 `json:"avg_power_w"`
	Drops       uint64  `json:"nic_drops"`
	Transitions int64   `json:"vf_transitions"`

	// CDF holds (ms, fraction) pairs when requested.
	CDF [][2]float64 `json:"cdf,omitempty"`

	// Streaming marks records whose quantiles come from the bounded
	// streaming recorder (bucket midpoints, within stats.StreamRelError)
	// rather than exact order statistics, so archived results stay
	// self-describing.
	Streaming bool `json:"streaming,omitempty"`
}

// NewRecord builds a record from a spec and its result.
func NewRecord(spec Spec, res server.Result, withCDF bool) Record {
	prof := spec.Cfg.Profile
	if prof == nil {
		prof = workload.Memcached()
	}
	idle := spec.Idle
	if idle == "" {
		idle = "menu"
	}
	r := Record{
		App:         prof.Name,
		Policy:      spec.Policy,
		Idle:        idle,
		Seed:        spec.Cfg.Seed,
		RPS:         spec.Cfg.RPS,
		N:           res.Summary.N,
		P50Ms:       res.Summary.P50.Millis(),
		P95Ms:       res.Summary.P95.Millis(),
		P99Ms:       res.Summary.P99.Millis(),
		P999Ms:      res.Summary.P999.Millis(),
		MaxMs:       res.Summary.Max.Millis(),
		SLOMs:       res.SLO.Millis(),
		Violated:    res.Violated,
		OverSLO:     res.FracOverSLO,
		EnergyJ:     res.EnergyJ,
		PowerW:      res.AvgPowerW,
		Drops:       res.Drops,
		Transitions: res.Transitions,
		Streaming:   res.Hist != nil && res.Hist.Streaming(),
	}
	if spec.Cfg.RPS == 0 {
		r.Level = spec.Cfg.Level.String()
	}
	if withCDF && res.Hist != nil {
		for _, p := range res.Hist.CDF(51) {
			r.CDF = append(r.CDF, [2]float64{p.Lat.Millis(), p.Frac})
		}
	}
	return r
}

// WriteJSON writes records as pretty-printed JSON.
func WriteJSON(w io.Writer, records []Record) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(records)
}
