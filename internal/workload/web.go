package workload

import (
	"traceback/internal/core"
	"traceback/internal/minic"
	"traceback/internal/tbrt"
)

// Table 2: SPECweb99 against an Apache-like server. The server is a
// thread-per-connection MiniC program: each connection thread parses
// a request (CPU), reads the file (simulated disk I/O), and sends the
// response (simulated network I/O). Because device time dominates,
// the instrumentation overhead lands near the paper's 5% instead of
// SPECint's 60% — the same mechanism the paper credits ("more system
// calls, more disk accesses ... reduce the impact of instrumentation
// on performance").
const srcWebServer = `int served;
int bytes;
int served_mu;
int parse_request(int seed) {
	int h = seed;
	for (int i = 0; i < 40; i = i + 1) {
		h = (h * 31 + i) % 65536;
		if (h % 7 == 0) { h = h + 3; }
	}
	return h;
}
int pick_file(int h) {
	int class = h % 4;
	if (class == 0) return 1024;
	if (class == 1) return 5120;
	if (class == 2) return 51200;
	return 102400;
}
int generate(int size) {
	int sum = 0;
	int words = size / 56;
	for (int i = 0; i < words; i = i + 1) {
		sum = (sum * 33 + i) % 65536;
		if (sum % 64 == 0) { sum = sum + 7; }
	}
	return sum;
}
int log_access(int size) {
	iowrite(64);
	return size;
}
int connection() {
	int reqs = getarg();
	for (int r = 0; r < reqs; r = r + 1) {
		int h = parse_request(tid() * 1000 + r);
		int size = pick_file(h);
		ioread(size);
		int body = size + generate(size) % 64;
		netsend(body);
		log_access(body);
		mutex_lock(&served_mu);
		served = served + 1;
		bytes = bytes + body;
		mutex_unlock(&served_mu);
	}
	return 0;
}
int main() {
	int conns = 21;
	int tids[32];
	for (int c = 0; c < conns; c = c + 1) {
		tids[c] = thread_create(&connection, getarg());
	}
	for (int c = 0; c < conns; c = c + 1) {
		join(tids[c]);
	}
	exit(served % 251);
}`

// webResult is the Table 2 comparison.
type webResult struct {
	Normal, TraceBack uint64 // server machine clock at the end of the load
	// Per paper Table 2: response time, operations/sec, Kbits/sec.
	ResponseNormal, ResponseTB float64 // ms
	OpsNormal, OpsTB           float64
	KbitsNormal, KbitsTB       float64
	Ratio                      float64 // response-time ratio
}

// cyclesPerMs converts machine cycles to simulated milliseconds.
const cyclesPerMs = 50_000

// runWeb runs the SPECweb99-like load: the workload's 21 connections,
// webRequestsPerConn requests each.
func runWeb() (webResult, error) {
	mod, err := minic.Compile("apache", "httpd.c", srcWebServer)
	if err != nil {
		return webResult{}, err
	}
	plain, err := runNative(mod, nil, 77, "server", webRequestsPerConn)
	if err != nil {
		return webResult{}, err
	}
	res, err := core.Instrument(mod, core.Options{})
	if err != nil {
		return webResult{}, err
	}
	tb, err := runNative(res.Module, &tbrt.Config{NumBuffers: 24}, 77, "server", webRequestsPerConn)
	if err != nil {
		return webResult{}, err
	}
	const nReq = webRequestsPerConn * 21
	// Average bytes per request from the file-size mix.
	const avgBytes = (1024 + 5120 + 51200 + 102400) / 4
	mkRow := func(cycles uint64) (resp, ops, kbits float64) {
		ms := float64(cycles) / cyclesPerMs
		resp = ms / float64(nReq) * 21 // per-request latency at 21 concurrent conns
		ops = float64(nReq) / (ms / 1000)
		kbits = ops * avgBytes * 8 / 1024
		return
	}
	r := webResult{Normal: plain.Machine.Clock(), TraceBack: tb.Machine.Clock()}
	r.ResponseNormal, r.OpsNormal, r.KbitsNormal = mkRow(r.Normal)
	r.ResponseTB, r.OpsTB, r.KbitsTB = mkRow(r.TraceBack)
	r.Ratio = r.ResponseTB / r.ResponseNormal
	return r, nil
}
