// The regression classifier: a pure, deterministic function from
// (buckets, newest snap time, thresholds) to a verdict per signature.
// All arithmetic is in whole rate windows (archive.WindowWidth
// cycles), anchored at the window holding the newest snap the
// warehouse has seen — the system has no wall clock, and using the
// index's own horizon keeps the verdicts identical across journal
// replay, -jobs widths, and the wire path.
package triage

import (
	"sort"

	"traceback/internal/archive"
)

// Class is a signature's triage verdict.
type Class string

const (
	// ClassNew: first seen within the newest newWindows windows — a
	// fault the fleet has not produced before (inside the horizon).
	ClassNew Class = "new"
	// ClassSpiking: the recent per-window rate exceeds spikeFactor ×
	// the trailing baseline rate with at least minRecent occurrences.
	ClassSpiking Class = "spiking"
	// ClassSteady: present both recently and in the baseline, with no
	// significant rate change.
	ClassSteady Class = "steady"
	// ClassQuiet: no occurrence within the newest quietWindows
	// windows.
	ClassQuiet Class = "quiet"
)

// rank orders classes by triage urgency (for deterministic output).
func (c Class) rank() int {
	switch c {
	case ClassNew:
		return 0
	case ClassSpiking:
		return 1
	case ClassSteady:
		return 2
	default:
		return 3
	}
}

// Flagged reports whether the class demands operator attention.
func (c Class) Flagged() bool { return c == ClassNew || c == ClassSpiking }

// Assessment is one signature's verdict with the numbers behind it.
type Assessment struct {
	Sig   string `json:"sig"`
	Title string `json:"title"`
	Weak  bool   `json:"weak,omitempty"`
	Class Class  `json:"class"`
	// Count is the bucket's all-time occurrence total.
	Count uint64 `json:"count"`
	// Recent counts occurrences inside the recent span.
	Recent uint64 `json:"recent"`
	// RecentRate and BaseRate are per-window occurrence rates over
	// the recent and baseline spans.
	RecentRate float64 `json:"recentRate"`
	BaseRate   float64 `json:"baseRate"`
	FirstSeen  uint64  `json:"firstSeen"`
	LastSeen   uint64  `json:"lastSeen"`
}

// Report is one classification scan over every bucket.
type Report struct {
	V int `json:"v"`
	// Now is the newest snap time in the index — the deterministic
	// anchor the spans were measured from.
	Now uint64 `json:"now"`
	// Window echoes archive.WindowWidth so clients can interpret the
	// spans.
	Window uint64 `json:"window"`
	// Assessments is every signature's verdict, most urgent first
	// (class rank, then recent count desc, then signature asc — fully
	// deterministic).
	Assessments []Assessment `json:"assessments"`
}

// Flagged returns the new and spiking assessments, in report order.
func (r *Report) Flagged() []Assessment {
	var out []Assessment
	for _, a := range r.Assessments {
		if a.Class.Flagged() {
			out = append(out, a)
		}
	}
	return out
}

// Classify runs the classifier over a bucket set against the given
// newest snap time (normally shard.NewestTime(buckets)). It is a pure
// function: the same inputs always produce the same report.
func Classify(buckets []archive.Bucket, now uint64, _ Config) *Report {
	rep := &Report{V: 1, Now: now, Window: archive.WindowWidth}
	nowWin := now / archive.WindowWidth
	for i := range buckets {
		rep.Assessments = append(rep.Assessments, assess(&buckets[i], nowWin))
	}
	sort.Slice(rep.Assessments, func(i, j int) bool {
		ai, aj := &rep.Assessments[i], &rep.Assessments[j]
		if ri, rj := ai.Class.rank(), aj.Class.rank(); ri != rj {
			return ri < rj
		}
		if ai.Recent != aj.Recent {
			return ai.Recent > aj.Recent
		}
		return ai.Sig < aj.Sig
	})
	return rep
}

// assess classifies one bucket. nowWin is the newest window index.
func assess(b *archive.Bucket, nowWin uint64) Assessment {
	a := Assessment{
		Sig: b.Sig, Title: b.Title, Weak: b.Weak,
		Count: b.Count, FirstSeen: b.FirstSeen, LastSeen: b.LastSeen,
	}
	w := archive.WindowWidth
	firstWin := b.FirstSeen / w
	lastWin := b.LastSeen / w
	R := uint64(recentWindows)
	B := uint64(baselineWindows)

	// Recent span: the newest R windows, indexes (nowWin-R, nowWin].
	recentFrom := uint64(0)
	if nowWin+1 > R {
		recentFrom = (nowWin + 1 - R) * w
	}
	a.Recent = b.WindowCount(recentFrom, nowWin*w)
	a.RecentRate = float64(a.Recent) / float64(R)

	// Baseline span: the B windows before the recent span, indexes
	// (nowWin-R-B, nowWin-R]. The effective divisor shrinks when the
	// bucket is younger than the span, so a young-but-steady bucket's
	// baseline is not diluted toward zero.
	var base uint64
	effB := uint64(0)
	if nowWin+1 > R {
		baseTo := nowWin - R // newest baseline window index
		baseFromWin := uint64(0)
		if baseTo+1 > B {
			baseFromWin = baseTo + 1 - B
		}
		base = b.WindowCount(baseFromWin*w, baseTo*w)
		effB = baseTo - baseFromWin + 1
		if firstWin > baseFromWin {
			if firstWin > baseTo {
				effB = 1
			} else {
				effB = baseTo - firstWin + 1
			}
		}
	}
	if effB == 0 {
		effB = 1
	}
	a.BaseRate = float64(base) / float64(effB)

	switch {
	case lastWin+quietWindows <= nowWin:
		a.Class = ClassQuiet
	case firstWin+newWindows > nowWin:
		a.Class = ClassNew
	case a.Recent >= minRecent && a.RecentRate >= spikeFactor*a.BaseRate:
		a.Class = ClassSpiking
	default:
		a.Class = ClassSteady
	}
	return a
}
