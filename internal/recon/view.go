package recon

// View steps backward through a thread's history from its newest
// event, the way the paper's fault-directed display reads it
// (§4.3.1): one event at a time, or out to the caller by the
// call-hierarchy depth recorded on each event.
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
	if v.pos < 0 {
		return nil
	}
	return &v.t.Events[v.pos]
}

// StepBack moves one event backward in time.
func (v *View) StepBack() bool {
	if v.pos <= 0 {
		return false
	}
	v.pos--
	return true
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
