package main

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/kfrida1/csdinf/internal/quality"
	"github.com/kfrida1/csdinf/internal/sandbox"
)

// The benchmark generates every input from --seed; the stack under test
// only ever receives the generated windows, offsets and calls.
const (
	seqLen = 100 // classification window (the paper's window)
	stride = 25  // detector stride and live-window step

	livePIDs      = 2000 // tenant population of the live and blackout streams
	liveRansom    = 0.1  // share of that population that is ransomware
	windowsPerPID = 8    // distinct windows each tenant cycles through

	scanSeqs = 512 // sequences pre-stored on every device's SSD

	streamPrefix    = 400  // benign desktop calls before each infection
	streamInfected  = 1500 // infected calls replayed per variant
	streamBenignLen = 600  // calls replayed per benign application
)

// variant is one entry of the sandbox ransomware catalog.
type variant struct {
	family string
	index  int
}

// catalog lists every ransomware variant of sandbox.Families (76).
func catalog() []variant {
	var out []variant
	for _, f := range sandbox.Families {
		for v := 0; v < f.Variants; v++ {
			out = append(out, variant{f.Name, v})
		}
	}
	return out
}

// memberProfile returns population member i's behaviour profile: the
// first ransomShare of n members cycle through the ransomware catalog, the
// rest through the benign applications.
func memberProfile(i, n int, ransomShare float64) (*sandbox.Profile, error) {
	if i < int(ransomShare*float64(n)+0.5) {
		cat := catalog()
		v := cat[i%len(cat)]
		return sandbox.RansomwareProfile(v.family, v.index)
	}
	return sandbox.BenignProfile(sandbox.BenignApps[i%len(sandbox.BenignApps)])
}

// traceSeed derives a per-member trace seed from the run seed.
func traceSeed(seed int64, member int) int64 { return seed*1_000_003 + int64(member) }

// liveOp is one open-loop arrival: when it is due, which tenant sends it,
// the window and its ground-truth label.
type liveOp struct {
	at     time.Duration
	pid    int
	tenant string
	seq    []int
	label  quality.Label
}

// liveSchedule draws Poisson arrivals at rate per second for dur. Each
// arrival picks a tenant uniformly; a tenant's k-th arrival sends window
// k mod windowsPerPID of its trace, so the first ops do not depend on dur.
func liveSchedule(seed int64, rate float64, dur time.Duration) ([]liveOp, error) {
	r := rand.New(rand.NewSource(seed))
	traces := make(map[int][]int)
	labels := make(map[int]quality.Label)
	sent := make(map[int]int)
	var ops []liveOp
	t := time.Duration(0)
	for {
		t += time.Duration(r.ExpFloat64() / rate * float64(time.Second))
		if t >= dur {
			return ops, nil
		}
		pid := r.Intn(livePIDs)
		tr, ok := traces[pid]
		if !ok {
			p, err := memberProfile(pid, livePIDs, liveRansom)
			if err != nil {
				return nil, err
			}
			if tr, err = p.Generate(seqLen+stride*(windowsPerPID-1), traceSeed(seed, pid)); err != nil {
				return nil, err
			}
			traces[pid], labels[pid] = tr, p.Label()
		}
		k := sent[pid] % windowsPerPID
		sent[pid]++
		ops = append(ops, liveOp{
			at:     t,
			pid:    1000 + pid,
			tenant: fmt.Sprintf("pid-%d", 1000+pid),
			seq:    tr[k*stride : k*stride+seqLen],
			label:  labels[pid],
		})
	}
}

// scanSet is the stored-sequence set of the scan workload and the seeded
// order in which closed-loop callers visit it.
type scanSet struct {
	seqs   [][]int
	labels []quality.Label
	order  []int // op i scans seqs[order[i%len(order)]]
}

// offset is sequence j's SSD byte offset on every device.
func (s *scanSet) offset(j int) int64 { return int64(j) * seqLen * 4 }

// newScanSet draws scanSeqs windows, one in four from ransomware, each at
// a seeded stride-aligned position of its member's trace.
func newScanSet(seed int64) (*scanSet, error) {
	r := rand.New(rand.NewSource(seed))
	s := &scanSet{order: r.Perm(scanSeqs)}
	for j := 0; j < scanSeqs; j++ {
		p, err := memberProfile(j, scanSeqs, 0.25)
		if err != nil {
			return nil, err
		}
		tr, err := p.Generate(seqLen+stride*(windowsPerPID-1), traceSeed(seed, j))
		if err != nil {
			return nil, err
		}
		k := r.Intn(windowsPerPID)
		s.seqs = append(s.seqs, tr[k*stride:k*stride+seqLen])
		s.labels = append(s.labels, p.Label())
	}
	return s, nil
}

// streamProc is one monitored process of the stream workload: its full
// call trace and, for ransomware, the call index where the infection
// starts (-1 for benign applications).
type streamProc struct {
	calls    []int
	infectAt int
	family   string
}

// newStream builds the paper's use case: every catalog variant replayed
// after a benign desktop prefix, as experiments.DetectionLatency does, plus
// every benign application.
func newStream(seed int64) ([]streamProc, error) {
	var out []streamProc
	for i, v := range catalog() {
		prefix, err := sandbox.ManualInteractionProfile().Generate(streamPrefix, traceSeed(seed, i))
		if err != nil {
			return nil, err
		}
		p, err := sandbox.RansomwareProfile(v.family, v.index)
		if err != nil {
			return nil, err
		}
		infected, err := p.Generate(streamInfected, traceSeed(seed, i)+int64(v.index)+1)
		if err != nil {
			return nil, err
		}
		out = append(out, streamProc{
			calls: append(prefix, infected...), infectAt: streamPrefix, family: v.family,
		})
	}
	for i, app := range sandbox.BenignApps {
		p, err := sandbox.BenignProfile(app)
		if err != nil {
			return nil, err
		}
		calls, err := p.Generate(streamBenignLen, traceSeed(seed, 100+i))
		if err != nil {
			return nil, err
		}
		out = append(out, streamProc{calls: calls, infectAt: -1, family: "benign"})
	}
	return out, nil
}

// windowTruth labels the window ending at call index end: ransomware when
// most of its calls come from the infection.
func (p *streamProc) windowTruth(end int) quality.Label {
	if p.infectAt >= 0 && end-p.infectAt+1 > seqLen/2 {
		return quality.Label{Truth: true, Family: p.family}
	}
	return quality.Label{Truth: false, Family: "benign"}
}

// classifies reports whether the detector classifies a window on call
// index i (0-based): at the first full window, then every stride calls.
func classifies(i int) bool {
	return i >= seqLen-1 && (i-(seqLen-1))%stride == 0
}
