package gate_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"traceback/internal/archive"
	"traceback/internal/collect"
	"traceback/internal/module"
	"traceback/internal/shard/gate"
)

// inMemory is the fleet's network for the fuzzer: each shard URL's
// host names a handler, called in place of a socket. It passes status,
// headers and body through untouched, so the gate sees bytes a real
// server would have refused to send.
type inMemory map[string]http.Handler

func (m inMemory) RoundTrip(req *http.Request) (*http.Response, error) {
	h, ok := m[req.URL.Host]
	if !ok {
		return nil, fmt.Errorf("no such shard %q", req.URL.Host)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Result(), nil
}

// noMaps resolves nothing: clustering then goes as far as fetching each
// bucket's exemplar by the content address the shard named.
type noMaps struct{}

func (noMaps) ForChecksum(string) (*module.MapFile, bool) { return nil, false }

// hostileStatuses are the status codes the fuzzer picks from.
var hostileStatuses = []int{200, 304, 200, 206, 301, 404, 500, 503}

// FuzzGateBucketsResponse plays a hostile shard beside an honest one.
// The hostile shard first answers by the protocol, so the gate holds a
// view of it; then once with whatever the fuzzer wrote — any status,
// any ETag, any body; then by the protocol again with a new list. The
// gate must never panic, must answer the fuzzed round with 502 or with
// exactly the merge of the lists the shards really sent (for the
// hostile one: the list its body strictly decodes to, or on a 304 for
// the held tag the list held), and must answer the last round with the
// new list whatever it was told in between: nothing a shard says can
// make the gate serve an answer the shards do not back.
func FuzzGateBucketsResponse(f *testing.F) {
	held, fresh := listOf("aa", 3), listOf("cc", 7)
	// The seeds also live under testdata/fuzz/FuzzGateBucketsResponse.
	good := string(renderBuckets(listOf("bb", 2)))
	f.Add(0, `"t2"`, []byte(good))                             // a changed list
	f.Add(1, `"t1"`, []byte{})                                 // not modified
	f.Add(1, `"t9"`, []byte{})                                 // 304 for a tag never sent
	f.Add(1, ``, []byte{})                                     // 304 naming nothing
	f.Add(0, ``, []byte(good))                                 // an older shard: no tag
	f.Add(0, `"t2"`, []byte(good+"{}"))                        // trailing data
	f.Add(0, `"t2"`, []byte(good[:len(good)/2]))               // truncated
	f.Add(0, `"t2"`, []byte(`{"v":2,"buckets":[]}`))           // unknown version
	f.Add(0, `"t2"`, []byte(`{"v":1,"buckets":null}`))         // no list at all
	f.Add(0, `W/"t2"`, []byte(good))                           // weak tag
	f.Add(0, "\"t\x01\"", []byte(good))                        // a tag no client could send back
	f.Add(6, `"t2"`, []byte(good))                             // server error
	f.Add(0, `"t2"`, []byte(`{"v":1,"buckets":[{"sig":""}]}`)) // a bucket with no signature
	// Content addresses too short to place, or to print twelve
	// characters of, and windows out of order.
	f.Add(0, `"t2"`, []byte(`{"v":1,"buckets":[{"sig":"dd","count":1,"rep":"0000","snaps":[{"sum":"00000000"},{"sum":"x"}],"windows":[{"start":900000,"count":1},{"start":0,"count":2}]}]}`))

	honestArch, err := archive.Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { honestArch.Close() })
	for i := 0; i < 6; i++ {
		s := fleetSnap(i)
		if _, err := honestArch.IngestUnique(s, archive.SignSnap(s, nil)); err != nil {
			f.Fatal(err)
		}
	}
	honestList := honestArch.Buckets()
	honestShard := collect.NewServer(honestArch, collect.ServerOptions{}).Handler()

	f.Fuzz(func(t *testing.T, status int, tag string, body []byte) {
		if tag == `"t3"` {
			t.Skip("the hostile shard named its list with the tag the last round uses: the lie is the shard's")
		}
		if status < 0 {
			status = -(status + 1)
		}
		status = hostileStatuses[status%len(hostileStatuses)]

		hostile := &scriptedShard{}
		g, err := gate.New([]string{"http://honest", "http://hostile"}, gate.Options{
			Client: &http.Client{Transport: inMemory{"honest": honestShard, "hostile": hostile}},
			Maps:   noMaps{},
		})
		if err != nil {
			t.Fatal(err)
		}
		ask := func(route string) (int, []byte) {
			rec := httptest.NewRecorder()
			g.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, route, nil))
			return rec.Code, rec.Body.Bytes()
		}

		hostile.play(honest(`"t1"`, held))
		if code, got := ask(collect.PathBuckets); code != http.StatusOK || !bytes.Equal(got, renderBuckets(honestList, held)) {
			t.Fatalf("honest round: gate answered %d\n%s", code, got)
		}

		hostile.play(rawReply(status, tag, string(body)))
		code, got := ask(collect.PathBuckets)
		switch code {
		case http.StatusBadGateway:
		case http.StatusOK:
			sent := held
			if status != http.StatusNotModified {
				var tr collect.TopResponse
				if status != http.StatusOK || json.Unmarshal(body, &tr) != nil || tr.V != 1 {
					t.Fatalf("gate answered 200 over a shard answer (status %d) that is no bucket list:\n%q", status, body)
				}
				sent = tr.Buckets
			} else if tag != `"t1"` {
				t.Fatalf("gate took a 304 for tag %q as naming the list it holds under \"t1\"", tag)
			}
			if want := renderBuckets(honestList, sent); !bytes.Equal(got, want) {
				t.Fatalf("gate answered 200 with something other than the merge of what the shards sent:\ngot  %s\nwant %s", got, want)
			}
			// The other views are computed from the hostile list too.
			for _, route := range []string{collect.PathTop + "?n=1", collect.PathRegressions, collect.PathClusters} {
				ask(route)
			}
		default:
			t.Fatalf("gate answered %d to a hostile shard, want 200 or 502", code)
		}

		hostile.play(honest(`"t3"`, fresh))
		if code, got := ask(collect.PathBuckets); code != http.StatusOK || !bytes.Equal(got, renderBuckets(honestList, fresh)) {
			t.Fatalf("after the hostile round (status %d, tag %q) the gate answered %d, not the shards' current lists:\n%s", status, tag, code, got)
		}
	})
}
