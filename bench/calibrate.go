package main

import (
	"bytes"
	"compress/flate"
	"math"
	"math/rand"
	"time"
)

// yardstick measures the host, not the stack: two small fixed kernels
// that use nothing from this repository and allocate nothing, so no
// change to the code under test can move them. What moves them is the
// machine. The sandbox this benchmark runs in shares its memory system
// with neighbours, and the same code runs 10–25 % faster or slower
// from one minute to the next; the yardstick, read before every phase
// of every round, moves with it (correlation 0.9 with the stack's own
// single-threaded phases over twelve runs at one seed). Clocked
// metrics are therefore reported in calibrated time: scaled by
// nominalYardstickMs over the run's median reading. See README.md.
type yardstick struct {
	next []int32 // one random cycle through 4 MB: a latency-bound pointer chase
	text []byte  // 128 KB of compressible text for flate: compute over a small working set
	fw   *flate.Writer
	out  bytes.Buffer
	sink int
}

// nominalYardstickMs is the reading clocked metrics are scaled to: the
// median on the sandbox the benchmark was defined on. It fixes the
// unit, nothing else; parent and change are scaled alike.
const nominalYardstickMs = 8.5

func newYardstick() *yardstick {
	rng := rand.New(rand.NewSource(7))
	y := &yardstick{}
	n := 1 << 20
	perm := rng.Perm(n)
	y.next = make([]int32, n)
	for i := 0; i < n; i++ {
		y.next[perm[i]] = int32(perm[(i+1)%n])
	}
	words := []string{"trace", "buffer", "probe", "dag", "snap", "shard", "gate", "0000", "0000", "0000"}
	var b bytes.Buffer
	for b.Len() < 128<<10 {
		b.WriteString(words[rng.Intn(len(words))])
		b.WriteByte(' ')
	}
	y.text = b.Bytes()
	y.out.Grow(len(y.text))
	y.fw, _ = flate.NewWriter(&y.out, flate.DefaultCompression) // the level is valid
	y.read()                                                    // first use sizes flate's tables
	return y
}

// read times both kernels once and returns the geometric mean of the
// two times, in milliseconds.
func (y *yardstick) read() float64 {
	t0 := time.Now()
	j := int32(0)
	for i := 0; i < 100_000; i++ {
		j = y.next[j]
	}
	y.sink += int(j)
	chase := time.Since(t0)

	t0 = time.Now()
	y.out.Reset()
	y.fw.Reset(&y.out)
	y.fw.Write(y.text) // a bytes.Buffer does not fail
	y.fw.Close()
	y.sink += y.out.Len()
	deflate := time.Since(t0)
	return math.Sqrt(ms(chase) * ms(deflate))
}
