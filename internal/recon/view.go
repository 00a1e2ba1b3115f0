package recon

// View provides the debugger-like stepping operations of the paper's
// GUI (§4.3.1): forward and backward stepping, plus step-over /
// step-out and their backward mirrors, driven by the call-hierarchy
// depth recorded on each event.
type View struct {
	t   *ThreadTrace
	pos int
}

// NewView opens a stepping view over a thread's history, positioned
// at the newest event (where a fault-directed display starts).
func NewView(t *ThreadTrace) *View {
	return &View{t: t, pos: len(t.Events) - 1}
}

// Current returns the current event (nil when the history is empty).
func (v *View) Current() *Event {
	if v.pos < 0 || v.pos >= len(v.t.Events) {
		return nil
	}
	return &v.t.Events[v.pos]
}

// SeekOldest positions at the start of the recovered history.
func (v *View) SeekOldest() { v.pos = 0 }

// Step moves one event forward in time. Returns false at the end.
func (v *View) Step() bool {
	if v.pos+1 >= len(v.t.Events) {
		return false
	}
	v.pos++
	return true
}

// StepBack moves one event backward in time.
func (v *View) StepBack() bool {
	if v.pos <= 0 {
		return false
	}
	v.pos--
	return true
}

// StepOver advances to the next event at the current depth or
// shallower, skipping callee events.
func (v *View) StepOver() bool {
	cur := v.Current()
	if cur == nil {
		return false
	}
	d := cur.Depth
	for i := v.pos + 1; i < len(v.t.Events); i++ {
		if v.t.Events[i].Depth <= d {
			v.pos = i
			return true
		}
	}
	return false
}

// StepOut advances to the next event strictly shallower than the
// current depth (back in the caller).
func (v *View) StepOut() bool {
	cur := v.Current()
	if cur == nil {
		return false
	}
	d := cur.Depth
	for i := v.pos + 1; i < len(v.t.Events); i++ {
		if v.t.Events[i].Depth < d {
			v.pos = i
			return true
		}
	}
	return false
}

// StepBackOver moves backward to the previous event at the current
// depth or shallower ("step back over", paper §4.3.1).
func (v *View) StepBackOver() bool {
	cur := v.Current()
	if cur == nil {
		return false
	}
	d := cur.Depth
	for i := v.pos - 1; i >= 0; i-- {
		if v.t.Events[i].Depth <= d {
			v.pos = i
			return true
		}
	}
	return false
}

// StepBackOut moves backward to the event in the caller that led
// here ("step back out").
func (v *View) StepBackOut() bool {
	cur := v.Current()
	if cur == nil {
		return false
	}
	d := cur.Depth
	for i := v.pos - 1; i >= 0; i-- {
		if v.t.Events[i].Depth < d {
			v.pos = i
			return true
		}
	}
	return false
}
