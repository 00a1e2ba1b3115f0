package workload

import (
	"strings"
	"testing"
)

// scaled is p's argument at a fraction of the published scale.
func scaled(p SpecProgram, f float64) uint64 {
	return max(1, uint64(float64(p.Arg)*f))
}

// TestSpecProgramsCompileAndRun: every kernel compiles, runs to the
// same exit status with and without instrumentation, and pays for its
// probes. The published-scale rows are the tables tree's
// (tools/gen); this runs a twentieth of that.
func TestSpecProgramsCompileAndRun(t *testing.T) {
	for _, p := range SpecInt {
		t.Run(p.Name, func(t *testing.T) {
			r, err := runSpec(p, scaled(p, 0.05))
			if err != nil {
				t.Fatal(err)
			}
			if r.Ratio <= 1.0 {
				t.Errorf("ratio = %.2f, instrumentation should cost something", r.Ratio)
			}
		})
	}
}

// TestSpecDeterminism: identical runs give identical cycle counts.
func TestSpecDeterminism(t *testing.T) {
	p, _ := SpecByName("gzip")
	a, err := runSpec(p, scaled(p, 0.25))
	if err != nil {
		t.Fatal(err)
	}
	b, err := runSpec(p, scaled(p, 0.25))
	if err != nil {
		t.Fatal(err)
	}
	if a.Normal != b.Normal || a.TraceBack != b.TraceBack {
		t.Error("benchmark runs are not deterministic")
	}
}

// published is a hand-built Tables with the published shape, for the
// shape tests below to break one claim at a time without a VM run.
func published() *Tables {
	t := &Tables{geoMean: 1.63, paperGeoMean: 1.60}
	for _, r := range []struct {
		name  string
		ratio float64
	}{
		{"ammp", 1.23}, {"art", 1.17}, {"equake", 1.20}, {"mcf", 1.29},
		{"gcc", 2.26}, {"parser", 1.93}, {"perlbmk", 2.36}, {"vortex", 2.14},
	} {
		t.spec = append(t.spec, specResult{Name: r.name, Ratio: r.ratio, CodeGrowth: 0.3})
	}
	t.web = webResult{Ratio: 1.06, OpsNormal: 154.6, OpsTB: 145.8, KbitsNormal: 48236, KbitsTB: 45503}
	for _, c := range []struct {
		sys    string
		r1, r5 float64
	}{{"Win", 1.189, 1.226}, {"Lin", 1.242, 1.278}, {"Sun", 1.226, 1.253}} {
		t.jbb = append(t.jbb, JbbResult{System: c.sys, Warehouses: 1, Ratio: c.r1}, JbbResult{System: c.sys, Warehouses: 5, Ratio: c.r5})
	}
	t.petShop = petShopResult{Drop: 0.0048}
	t.ablations = []ablationResult{
		{Name: "gzip", Variant: "force-spill", Ratio: 1.99, Baseline: 1.79},
		{Name: "perlbmk", Variant: "no-break-at-calls", Ratio: 1.75, Baseline: 2.36},
		{Name: "gcc", Variant: "max-path-bits-4", Ratio: 2.68, Baseline: 2.26},
		{Name: "gcc", Variant: "max-path-bits-2", Ratio: 2.79, Baseline: 2.26},
	}
	t.subBuf = [2]uint64{524949, 524963}
	return t
}

// shapeCases name ways to break one claim of published(), each with
// the words Check must refuse it with.
type shapeCases = map[string]struct {
	breakIt func(*Tables)
	claim   string
}

// refuses breaks published() once per case and requires Check to
// refuse the result with a message naming the broken claim.
func refuses(t *testing.T, cases shapeCases) {
	t.Helper()
	if err := published().Check(); err != nil {
		t.Fatalf("the published shape is refused: %v", err)
	}
	for name, c := range cases {
		tb := published()
		c.breakIt(tb)
		if err := tb.Check(); err == nil || !strings.Contains(err.Error(), c.claim) {
			t.Errorf("%s: Check() = %v, want a refusal naming %q", name, err, c.claim)
		}
	}
}

func spec(t *Tables, name string) *specResult {
	for i := range t.spec {
		if t.spec[i].Name == name {
			return &t.spec[i]
		}
	}
	panic("no row " + name)
}

// TestTable1Shape: Table 1's claims — every ratio and code growth in
// band, perlbmk the most expensive, every memory-bound kernel cheaper
// than every call-dense one, the geomean within 0.04 of the paper's.
func TestTable1Shape(t *testing.T) {
	refuses(t, shapeCases{
		"ratio at 1.0":        {func(t *Tables) { spec(t, "art").Ratio = 1.0 }, "art ratio 1.00 is outside (1.0, 3.5]"},
		"growth out of band":  {func(t *Tables) { spec(t, "mcf").CodeGrowth = 1.2 }, "mcf code growth 1.20 is outside"},
		"perlbmk not the top": {func(t *Tables) { spec(t, "gcc").Ratio = 2.40 }, "perlbmk (2.36) is not the most expensive program: gcc is 2.40"},
		"memory-bound above":  {func(t *Tables) { spec(t, "mcf").Ratio = 2.0 }, "memory-bound mcf (2.00) is not cheaper than call-dense parser (1.93)"},
		"geomean off by 0.05": {func(t *Tables) { t.geoMean = 1.65 }, "geomean 1.650 is not within 0.04 of the paper's 1.600"},
		"geomean off below":   {func(t *Tables) { t.geoMean = 1.55 }, "geomean 1.550 is not within 0.04"},
		"perlbmk row missing": {func(t *Tables) { spec(t, "perlbmk").Name = "perl" }, "not cheaper than call-dense perlbmk"},
	})
}

// TestTable2Shape: web-server overhead lands near the paper's 5%, an
// order of magnitude below SPECint, and costs throughput.
func TestTable2Shape(t *testing.T) {
	refuses(t, shapeCases{
		"ratio too high":    {func(t *Tables) { t.web.Ratio = 1.2 }, "Table 2: response ratio 1.200 is outside [1.005, 1.15]"},
		"ratio too low":     {func(t *Tables) { t.web.Ratio = 1.001 }, "Table 2: response ratio 1.001"},
		"throughput gained": {func(t *Tables) { t.web.KbitsTB = t.web.KbitsNormal }, "Table 2: TraceBack throughput is not below Normal"},
	})
}

// TestTable3Shape: every managed warehouse cell in the 1.16–1.28 band,
// 5W above 1W on every system, Win the cheapest at both counts.
func TestTable3Shape(t *testing.T) {
	refuses(t, shapeCases{
		"cell out of band": {func(t *Tables) { t.jbb[3].Ratio = 1.30 }, "Table 3: Lin 5W ratio 1.300 is outside the managed band"},
		"5W not above 1W":  {func(t *Tables) { t.jbb[5].Ratio = 1.226 }, "Table 3: Sun 5W (1.226) does not exceed 1W (1.226)"},
		"Win not cheapest": {func(t *Tables) { t.jbb[0].Ratio = 1.25; t.jbb[1].Ratio = 1.26 }, "Table 3: Win is not the cheapest at 1W: Win 1.250, Sun 1.226"},
	})
}

// TestPetShopShape: the managed web app loses only ~1% throughput.
func TestPetShopShape(t *testing.T) {
	refuses(t, shapeCases{
		"negative drop": {func(t *Tables) { t.petShop.Drop = -0.001 }, "PetShop: throughput drop -0.10% is outside [0, 5%]"},
		"drop too big":  {func(t *Tables) { t.petShop.Drop = 0.06 }, "PetShop: throughput drop 6.00%"},
	})
}

// TestAblations: the design-choice costs move in the documented
// directions.
func TestAblations(t *testing.T) {
	refuses(t, shapeCases{
		"spills for free":    {func(t *Tables) { t.ablations[0].Ratio = 1.79 }, "ablation: forced spills (1.79) do not cost more"},
		"breaks for free":    {func(t *Tables) { t.ablations[1].Ratio = 2.40 }, "ablation: dropping the call-return probes (2.40) is not cheaper"},
		"path bits reversed": {func(t *Tables) { t.ablations[2].Ratio, t.ablations[3].Ratio = 2.79, 2.68 }, "ablation: 2 path bits (2.68) do not cost more than 4 (2.79)"},
	})
}

// TestSubBufferOverhead: sub-buffering costs something but not much.
func TestSubBufferOverhead(t *testing.T) {
	refuses(t, shapeCases{
		"too costly": {func(t *Tables) { t.subBuf[1] = t.subBuf[0] * 13 / 10 }, "ablation: sub-buffering cycle ratio 1.300 is outside [0.99, 1.25]"},
		"too cheap":  {func(t *Tables) { t.subBuf[1] = t.subBuf[0] * 9 / 10 }, "sub-buffering cycle ratio 0.900"},
	})
}
