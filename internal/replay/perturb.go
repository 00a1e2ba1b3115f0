package replay

import (
	"fmt"
	"math/rand"

	"traceback/internal/snap"
	"traceback/internal/trace"
	"traceback/internal/vm"
)

// PerturbResult is one replay-under-perturbation run: the original
// log re-executed with exactly one seeded variation (iReplayer's
// in-situ evaluation). The run is non-strict — a perturbed log is
// SUPPOSED to diverge from the recording — and the harvest shows what
// the execution became under the variation.
type PerturbResult struct {
	// Mutation describes the applied variation.
	Mutation string
	Result   *Result
}

// Perturb replays l with one deterministic seeded mutation.
func Perturb(l *snap.NondetLog, seed int64) (*PerturbResult, error) {
	rng := rand.New(rand.NewSource(seed))
	ml, desc := mutate(l, rng)
	res, err := runWith(ml, false)
	if err != nil {
		return nil, err
	}
	return &PerturbResult{Mutation: desc, Result: res}, nil
}

// mutate clones l with one variation applied. Logs that carry
// perturbation events get one of them shifted, dropped, or hardened;
// clean recordings get a fresh signal injected at a recorded
// checkpoint — every log has at least one meaningful variation.
func mutate(l *snap.NondetLog, rng *rand.Rand) (*snap.NondetLog, string) {
	c := *l
	out := &c
	out.Events = append([]trace.NondetRecord(nil), l.Events...)

	var cands []int
	for i, ev := range out.Events {
		switch ev.Kind {
		case trace.NDSignal, trace.NDKill, trace.NDUnload, trace.NDRPCFault, trace.NDManaged:
			cands = append(cands, i)
		}
	}
	if len(cands) == 0 {
		// Clean recording: inject a signal at a random checkpoint (the
		// checkpoint pins a live thread to target).
		var ckpts []trace.NondetRecord
		for _, ev := range out.Events {
			if ev.Kind == trace.NDQuantum && ev.PID != 0 {
				ckpts = append(ckpts, ev)
			}
		}
		if len(ckpts) == 0 {
			return out, "no-op (empty recording)"
		}
		ck := ckpts[rng.Intn(len(ckpts))]
		out.Events = append(out.Events, trace.NondetRecord{
			Kind:    trace.NDSignal,
			Quantum: ck.Quantum,
			Machine: ck.Machine,
			PID:     ck.PID,
			TID:     ck.TID,
			Sig:     int32(vm.SigApp),
		})
		return out, fmt.Sprintf("inject SIGAPP at q=%d pid=%d tid=%d", ck.Quantum, ck.PID, ck.TID)
	}

	i := cands[rng.Intn(len(cands))]
	ev := &out.Events[i]
	switch rng.Intn(3) {
	case 0:
		delta := uint64(1 + rng.Intn(256))
		ev.Quantum += delta
		return out, fmt.Sprintf("shift %s by +%d quanta (now q=%d)", ev.Kind, delta, ev.Quantum)
	case 1:
		desc := fmt.Sprintf("drop recorded %s at q=%d", ev.Kind, ev.Quantum)
		out.Events = append(out.Events[:i], out.Events[i+1:]...)
		return out, desc
	default:
		if ev.Kind == trace.NDRPCFault {
			ev.Flags |= trace.NDFDrop
			ev.Delay = 0
			return out, fmt.Sprintf("harden rpc-fault #%d to a drop", ev.Index)
		}
		delta := uint64(1 + rng.Intn(64))
		ev.Quantum += delta
		return out, fmt.Sprintf("shift %s by +%d quanta (now q=%d)", ev.Kind, delta, ev.Quantum)
	}
}
