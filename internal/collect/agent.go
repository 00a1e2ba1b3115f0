package collect

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"traceback/internal/archive"
	"traceback/internal/shard"
	"traceback/internal/snap"
	"traceback/internal/telemetry"
)

// quarantineDir is where the agent parks spool entries it must never
// upload (unreadable, or rejected outright by the daemon). Evidence
// is never deleted — a human decides what a quarantined snap was.
const quarantineDir = "quarantine"

// spoolSuffix ends the name of every entry Spool writes:
// "<sum>.snap.json.gz".
const spoolSuffix = ".snap.json.gz"

// maxUploadResponse bounds the agent's read of a 2xx upload reply. An
// UploadResponse is a sum, a signature ID and a title — a few hundred
// bytes; a reply that runs past this is not the daemon's answer.
const maxUploadResponse = 64 << 10

// Spool writes a snap into a spool directory under its content
// address (snap.WriteFile, so a crash never leaves a partial snap
// where the agent would pick it up). Identical snaps spool once —
// the name is the content hash — which makes local re-spooling as
// idempotent as the wire protocol above it. The file is the canonical
// upload body: the agent sends its bytes as they are.
func Spool(dir string, s *snap.Snap) (string, error) {
	sum, canonical, err := archive.ChecksumSnap(s)
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("collect: %w", err)
	}
	path := filepath.Join(dir, sum+spoolSuffix)
	if _, err := os.Stat(path); err == nil {
		return path, nil
	}
	if _, err := snap.WriteFile(path, func(w io.Writer) error { return snap.WriteGzip(w, canonical) }); err != nil {
		return "", fmt.Errorf("collect: %w", err)
	}
	return path, nil
}

// SpoolForwarder adapts a spool directory to the service's forward
// hook: every service-triggered snap (hang, external, group) lands in
// the spool and rides the agent to the warehouse.
func SpoolForwarder(dir string) func(*snap.Snap) error {
	return func(s *snap.Snap) error {
		_, err := Spool(dir, s)
		return err
	}
}

// AgentOptions configures an uploader.
type AgentOptions struct {
	// Client is the HTTP client (default: 30s-timeout client).
	Client *http.Client
	// BackoffBase/BackoffMax bound the jittered exponential retry
	// delay (defaults 200ms / 30s).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Seed seeds the backoff jitter; 0 derives one from the clock so
	// a fleet of agents does not retry in lockstep. Tests pin it.
	Seed int64
	// Sleep replaces the inter-retry wait (tests compress time). It
	// must respect ctx like the default does.
	Sleep func(ctx context.Context, d time.Duration) error
	// Telemetry is the registry coll_agent_ metrics land in.
	Telemetry *telemetry.Registry
}

// Agent watches a spool directory and uploads every snap to a
// collection daemon, or to a ring of shard daemons. Durability
// contract: a snap leaves the spool only after a 2xx response whose
// hash echo matches the content address it is spooled under — anything
// less (lost response, truncated reply, 5xx, daemon death mid-upload)
// leaves the file spooled and the next pass retries. The warehouse's
// content-addressed idempotency makes those retries safe: re-uploading
// committed content is a no-op.
//
// Placement needs no coordination: the first 32 bits of the content
// address index the shard ring (internal/shard), one daemon being a
// ring of one. Liveness needs no probe: the upload attempt is the
// check. A shard that cannot be reached, or that answers 503 because
// it is draining, is skipped for the rest of the pass and the snap
// goes to the next shard in ring order at once. Such a failover can
// land content off its home shard; the warehouse merge dedups by
// content address, so the fleet view loses nothing, and every attempt
// off home is counted (coll_agent_failover_total) and
// flight-recorded.
type Agent struct {
	spool string
	// servers holds the daemon base URLs in shard-ring order.
	servers []string
	ring    *shard.Ring

	client      *http.Client
	backoffBase time.Duration
	backoffMax  time.Duration
	sleep       func(ctx context.Context, d time.Duration) error

	rngMu sync.Mutex
	rng   *rand.Rand

	reg *telemetry.Registry
	rec *telemetry.Recorder
	met agentMetrics
}

type agentMetrics struct {
	uploads      *telemetry.Counter
	dedupSkips   *telemetry.Counter
	retries      *telemetry.Counter
	backpressure *telemetry.Counter
	quarantined  *telemetry.Counter
	failovers    *telemetry.Counter
}

// NewFleetAgent builds an uploader for one spool directory over the
// daemon base URLs (e.g. "http://collector:7321"), listed in
// shard-ring order: every agent and the gate must agree on the order —
// it is the placement function. One URL is the one-daemon deployment.
func NewFleetAgent(spool string, servers []string, opts AgentOptions) (*Agent, error) {
	if len(servers) == 0 {
		return nil, fmt.Errorf("collect: fleet agent needs at least one server")
	}
	ring, err := shard.NewRing(len(servers))
	if err != nil {
		return nil, err
	}
	if opts.Client == nil {
		opts.Client = &http.Client{Timeout: 30 * time.Second}
	}
	if opts.BackoffBase <= 0 {
		opts.BackoffBase = 200 * time.Millisecond
	}
	if opts.BackoffMax <= 0 {
		opts.BackoffMax = 30 * time.Second
	}
	if opts.Seed == 0 {
		opts.Seed = time.Now().UnixNano()
	}
	if opts.Sleep == nil {
		opts.Sleep = sleepCtx
	}
	reg := opts.Telemetry
	if reg == nil {
		reg = telemetry.New()
	}
	bases := make([]string, len(servers))
	for i, s := range servers {
		bases[i] = strings.TrimRight(s, "/")
	}
	a := &Agent{
		spool:       spool,
		servers:     bases,
		ring:        ring,
		client:      opts.Client,
		backoffBase: opts.BackoffBase,
		backoffMax:  opts.BackoffMax,
		sleep:       opts.Sleep,
		rng:         rand.New(rand.NewSource(opts.Seed)),
		reg:         reg,
		rec:         reg.Recorder(256),
	}
	a.met = agentMetrics{
		uploads:      reg.Counter("coll_agent_uploads_total", "snaps uploaded and committed (hash echo matched)"),
		dedupSkips:   reg.Counter("coll_agent_dedup_skips_total", "spooled snaps skipped entirely after a dedup-precheck hit"),
		retries:      reg.Counter("coll_agent_retries_total", "retryable upload failures (retried with backoff)"),
		backpressure: reg.Counter("coll_agent_backpressure_total", "429 backpressure responses honored"),
		quarantined:  reg.Counter("coll_agent_quarantined_total", "spool entries quarantined (unreadable or rejected)"),
		failovers:    reg.Counter("coll_agent_failover_total", "uploads redirected off their home shard (down or draining)"),
	}
	reg.GaugeFunc("coll_agent_spooled", "snaps waiting in the spool", func() int64 {
		paths, err := a.scan()
		if err != nil {
			return -1
		}
		return int64(len(paths))
	})
	return a, nil
}

// Metrics returns the agent's registry.
func (a *Agent) Metrics() *telemetry.Registry { return a.reg }

// scan lists the spool's snap files in sorted (deterministic) order,
// ignoring quarantine, tmp files, and anything that is not a snap.
func (a *Agent) scan() ([]string, error) {
	entries, err := os.ReadDir(a.spool)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("collect: %w", err)
	}
	var out []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !snap.IsFileName(name) {
			continue
		}
		out = append(out, filepath.Join(a.spool, name))
	}
	sort.Strings(out)
	return out, nil
}

// outcome classifies one per-file attempt.
type outcome int

const (
	outCommitted   outcome = iota // left the spool (uploaded or dedup-skipped)
	outRetry                      // transient failure, file stays spooled
	outQuarantined                // moved aside, never retried
	outDown                       // the shard is down or draining: try the next one
)

// Drain uploads until the spool is empty, retrying failed snaps with
// jittered exponential backoff (and honoring Retry-After hints), until
// ctx is cancelled. On cancellation the remaining snaps stay spooled —
// the next Drain, even in a new process, resumes them.
func (a *Agent) Drain(ctx context.Context) error { return a.loop(ctx, 0) }

// Run watches the spool until ctx is cancelled: drain what is there,
// then poll for new snaps. Transient failures back off exactly as in
// Drain; an idle spool costs one directory scan per poll interval.
func (a *Agent) Run(ctx context.Context, poll time.Duration) error {
	if poll <= 0 {
		poll = 2 * time.Second
	}
	return a.loop(ctx, poll)
}

// loop is Drain (poll 0: stop once a pass leaves nothing spooled) and
// Run (sleep poll after such a pass). Only Run returns ctx's error
// bare.
func (a *Agent) loop(ctx context.Context, poll time.Duration) error {
	attempt := 0
	for {
		done, remaining, hint, lastErr := a.pass(ctx)
		if remaining == 0 && poll == 0 {
			return nil
		}
		d := poll
		if remaining == 0 {
			attempt = 0
		} else {
			if done > 0 {
				attempt = 0 // progress: the daemon is back, restart the ramp
			}
			attempt++
			d = max(a.backoff(attempt), hint)
		}
		err := ctx.Err()
		if err == nil {
			err = a.sleep(ctx, d)
		}
		if err != nil {
			if poll > 0 {
				return err
			}
			return fmt.Errorf("collect: drain interrupted with %d snap(s) spooled (last error: %v): %w",
				remaining, lastErr, err)
		}
	}
}

// pass tries every spooled snap once. done counts snaps that left the
// spool, remaining what is still waiting (retryables), hint the
// largest Retry-After a daemon sent, lastErr the most recent
// retryable failure (for diagnostics).
func (a *Agent) pass(ctx context.Context) (done, remaining int, hint time.Duration, lastErr error) {
	paths, err := a.scan()
	if err != nil {
		return 0, 0, 0, err
	}
	down := make([]bool, len(a.servers)) // shards an attempt found down or draining
	for _, p := range paths {
		if ctx.Err() != nil {
			remaining++
			continue
		}
		out, h, err := a.processFile(ctx, p, down)
		switch out {
		case outCommitted, outQuarantined:
			done++
		case outRetry:
			remaining++
			a.met.retries.Inc()
			if err != nil {
				lastErr = err
				a.rec.Record(0, "coll-agent-retry", filepath.Base(p)+": "+err.Error())
			}
			hint = max(hint, h)
		}
	}
	return done, remaining, hint, lastErr
}

// processFile pushes one spool entry through the protocol state
// machine: precheck → upload → hash-echo commit. An entry Spool wrote
// is addressed by its name and its bytes are the upload body; the
// agent neither decodes nor hashes it. Any other entry is re-spooled
// first (respool).
//
// The entry goes to its ring home, or to the next shard in ring order
// that down does not mark. A shard the attempt finds down or draining
// is marked for the rest of the pass and the walk goes on at once;
// with no shard left the entry stays spooled, hinted with the largest
// Retry-After seen.
func (a *Agent) processFile(ctx context.Context, path string, down []bool) (outcome, time.Duration, error) {
	sum, ok := spoolSum(filepath.Base(path))
	if !ok {
		return a.respool(ctx, path, down, errors.New("not named by its content address"))
	}
	body, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return outCommitted, 0, nil // another drain already took it
		}
		return outRetry, 0, err
	}
	home, err := a.ring.Place(sum)
	if err != nil {
		return outRetry, 0, err
	}
	var hint time.Duration
	cause := fmt.Errorf("no live shard (home %d of %d)", home, len(a.servers))
	for i := range a.servers {
		s := (home + i) % len(a.servers)
		if down[s] {
			continue
		}
		if ctx.Err() != nil {
			break // a cancelled attempt says nothing about the next shard
		}
		if s != home {
			a.met.failovers.Inc()
			a.rec.Record(0, "coll-agent-failover", fmt.Sprintf("%s: shard %d -> %d", sum[:12], home, s))
		}
		out, h, err := a.upload(ctx, a.servers[s], path, sum, body, down)
		if out != outDown {
			return out, h, err
		}
		down[s] = true
		hint, cause = max(hint, h), err
	}
	return outRetry, hint, cause
}

// upload runs the state machine against one daemon. A transport error
// or a 503 is outDown; processFile never returns it.
func (a *Agent) upload(ctx context.Context, base, path, sum string, body []byte, down []bool) (outcome, time.Duration, error) {
	// Dedup precheck: a HEAD round trip instead of the whole body for
	// crashes the warehouse already holds.
	req, err := http.NewRequestWithContext(ctx, http.MethodHead, base+PathBlobPrefix+sum, nil)
	if err != nil {
		return outRetry, 0, err
	}
	resp, err := a.client.Do(req)
	if err != nil {
		return outDown, 0, err
	}
	resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		a.met.dedupSkips.Inc()
		return a.commit(path)
	case http.StatusNotFound:
		// fall through to upload
	case http.StatusTooManyRequests:
		a.met.backpressure.Inc()
		return outRetry, retryAfter(resp), fmt.Errorf("precheck backpressure (429)")
	case http.StatusServiceUnavailable:
		return outDown, retryAfter(resp), fmt.Errorf("precheck: %s", resp.Status)
	default:
		return outRetry, 0, fmt.Errorf("precheck: unexpected status %s", resp.Status)
	}

	req, err = http.NewRequestWithContext(ctx, http.MethodPost, base+PathSnap, bytes.NewReader(body))
	if err != nil {
		return outRetry, 0, err
	}
	req.Header.Set("Content-Type", "application/gzip")
	req.Header.Set(HeaderSum, sum)
	resp, err = a.client.Do(req)
	if err != nil {
		return outDown, 0, err
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusCreated:
		var ur UploadResponse
		if err := json.NewDecoder(io.LimitReader(resp.Body, maxUploadResponse)).Decode(&ur); err != nil {
			// Truncated, garbled or endless response: the daemon may or
			// may not have committed. Idempotency makes retrying the
			// right move.
			return outRetry, 0, fmt.Errorf("unreadable upload response: %w", err)
		}
		if ur.Sum != sum {
			return outRetry, 0, fmt.Errorf("hash echo %q does not match %q", ur.Sum, sum)
		}
		a.met.uploads.Inc()
		a.rec.Record(0, "coll-agent-upload", sum[:12]+" -> "+ur.Sig)
		return a.commit(path)
	case resp.StatusCode == http.StatusTooManyRequests:
		a.met.backpressure.Inc()
		return outRetry, retryAfter(resp), fmt.Errorf("upload backpressure (429)")
	case resp.StatusCode == http.StatusServiceUnavailable:
		return outDown, retryAfter(resp), fmt.Errorf("upload: %s", resp.Status)
	case resp.StatusCode >= 500:
		return outRetry, 0, fmt.Errorf("upload: daemon error %s", resp.Status)
	default:
		// A definitive 4xx: the daemon examined this snap and refused.
		// Retrying identical bytes cannot succeed; keep the evidence,
		// and keep the daemon's explanation next to it — by the time a
		// human opens the quarantine, the daemon's logs may be gone.
		snippet, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		cause := fmt.Errorf("upload rejected: %s", resp.Status)
		if t := strings.TrimSpace(string(snippet)); t != "" {
			cause = fmt.Errorf("upload rejected: %s: %s", resp.Status, t)
		}
		if resp.StatusCode == http.StatusUnprocessableEntity {
			// The bytes are not the snap their name addresses, or not
			// its canonical encoding: a decoded snap re-spooled is both.
			return a.respool(ctx, path, down, cause)
		}
		return a.quarantine(path, cause)
	}
}

// respool handles every spool entry the upload path cannot send as it
// is — a foreign name, a plain .snap.json, or bytes the daemon refused
// with 422; cause says which. It decodes the entry, spools the snap
// under its content address, removes the original and sends the
// spooled copy through the state machine at once. An entry that does
// not decode is quarantined, and so is one whose respool lands on its
// own name, with cause kept: the daemon would refuse the same bytes
// again, so retrying could only loop.
func (a *Agent) respool(ctx context.Context, path string, down []bool, cause error) (outcome, time.Duration, error) {
	sn, err := snap.LoadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return outCommitted, 0, nil // another drain already took it
		}
		// Not evidence the wire can carry; park it where a human will
		// find it instead of spinning on it forever.
		return a.quarantine(path, fmt.Errorf("unreadable snap: %w", err))
	}
	dst, err := Spool(a.spool, sn)
	if err != nil {
		return outRetry, 0, err
	}
	if dst == path {
		return a.quarantine(path, cause)
	}
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return outRetry, 0, err
	}
	a.rec.Record(sn.Time, "coll-agent-respool", filepath.Base(path)+" -> "+filepath.Base(dst)+": "+cause.Error())
	return a.processFile(ctx, dst, down)
}

// spoolSum returns the content address a spool entry is named by, and
// false for any name Spool does not write.
func spoolSum(name string) (string, bool) {
	sum, ok := strings.CutSuffix(name, spoolSuffix)
	return sum, ok && validSum(sum)
}

// commit removes a spool entry — only ever called after the dedup
// precheck or the hash echo proved the warehouse holds the content.
func (a *Agent) commit(path string) (outcome, time.Duration, error) {
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return outRetry, 0, err
	}
	return outCommitted, 0, nil
}

func (a *Agent) quarantine(path string, cause error) (outcome, time.Duration, error) {
	dir := filepath.Join(a.spool, quarantineDir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return outRetry, 0, err
	}
	if err := os.Rename(path, filepath.Join(dir, filepath.Base(path))); err != nil {
		return outRetry, 0, err
	}
	// Sidecar the cause next to the evidence. Best effort: the snap is
	// already safely parked, and a failed note must not resurrect it.
	reason := filepath.Join(dir, filepath.Base(path)+".reason")
	_ = os.WriteFile(reason, []byte(cause.Error()+"\n"), 0o644)
	a.met.quarantined.Inc()
	a.rec.Record(0, "coll-agent-quarantine", filepath.Base(path)+": "+cause.Error())
	return outQuarantined, 0, nil
}

func (a *Agent) backoff(attempt int) time.Duration {
	a.rngMu.Lock()
	defer a.rngMu.Unlock()
	return Backoff(a.backoffBase, a.backoffMax, attempt, a.rng)
}

// Backoff is the jittered exponential delay after attempt consecutive
// failures: base·2^(attempt-1) capped at limit, then drawn uniformly
// from [d/2, d] so a fleet's retries decorrelate.
func Backoff(base, limit time.Duration, attempt int, rng *rand.Rand) time.Duration {
	d := base
	for i := 1; i < attempt && d < limit; i++ {
		d *= 2
	}
	if d > limit {
		d = limit
	}
	return d/2 + time.Duration(rng.Int63n(int64(d/2)+1))
}

// retryAfter parses a Retry-After seconds hint (0 when absent/bad).
func retryAfter(resp *http.Response) time.Duration {
	v := resp.Header.Get("Retry-After")
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
