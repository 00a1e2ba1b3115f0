package triage

import (
	"errors"
	"reflect"
	"testing"

	"traceback/internal/archive"
	"traceback/internal/shard"
	"traceback/internal/snap"
)

// movingWarehouse is a warehouse in which an ingest lands between any
// two calls: every method answers from the next state in the list (the
// last one repeats). It carries the Bucket and NewestTime methods the
// Warehouse interface used to have, so an analyzer that pairs a list
// from one call with a "now" from another is caught doing it.
type movingWarehouse struct {
	states [][]archive.Bucket
	calls  int
}

func (m *movingWarehouse) next() []archive.Bucket {
	i := min(m.calls, len(m.states)-1)
	m.calls++
	return m.states[i]
}

func (m *movingWarehouse) Buckets() []archive.Bucket { return m.next() }
func (m *movingWarehouse) Bucket(sig string) (archive.Bucket, error) {
	return archive.FindBucket(m.next(), sig)
}
func (m *movingWarehouse) NewestTime() uint64 { return shard.NewestTime(m.next()) }
func (m *movingWarehouse) LoadSnap(string) (*snap.Snap, error) {
	return nil, errors.New("no blobs")
}

// TestViewsUseOneSnapshot: a report is computed from one bucket list —
// the buckets and the "now" they are judged against — even when the
// warehouse changes between any two reads. The second state adds a
// burst six windows on: judged against that later "now", the steady
// bucket of the first state would read quiet.
func TestViewsUseOneSnapshot(t *testing.T) {
	before := []archive.Bucket{mkBucket("steady", []uint64{2, 2, 2, 2, 2, 2, 2, 2})}
	after := []archive.Bucket{
		mkBucket("steady", []uint64{2, 2, 2, 2, 2, 2, 2, 2}),
		mkBucket("burst", []uint64{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 9}),
	}
	states := [][]archive.Bucket{before, after}

	an := New(&movingWarehouse{states: states}, nil, Config{}, nil)
	want := Classify(before, shard.NewestTime(before), an.Config())
	if got := an.Regressions(); !reflect.DeepEqual(got, want) {
		t.Errorf("Regressions mixed two warehouse states:\ngot  %+v\nwant %+v", got, want)
	}

	an = New(&movingWarehouse{states: states}, nil, Config{}, nil)
	got, err := an.Rates("steady")
	if err != nil {
		t.Fatal(err)
	}
	if got.Now != want.Now || !reflect.DeepEqual(got.Assessment, want.Assessments[0]) {
		t.Errorf("Rates mixed two warehouse states: now %d, %+v; want now %d, %+v",
			got.Now, got.Assessment, want.Now, want.Assessments[0])
	}
}
