package main

import (
	"encoding/json"
	"fmt"
	"path/filepath"

	"traceback/internal/verify"
	"traceback/internal/verify/seed"
)

// genBroken writes the verifier's negative corpus from
// internal/verify/seed: one .tbm/.map.json pair per defect class and
// one module set per cross-module defect class under corpus/fleet
// (`make check` runs tbcheck -broken over both), each with a manifest
// naming the pass that must flag every case, and every case again as a
// seed for FuzzMapFileVerify / FuzzFleetVerify, so the fuzzers start
// from structurally valid inputs rather than noise.
func genBroken(root string) error {
	testdata := filepath.Join(root, "internal", "verify", "testdata")
	corpus := filepath.Join(testdata, "corpus")
	if err := genBrokenModules(corpus, filepath.Join(testdata, "fuzz", "FuzzMapFileVerify")); err != nil {
		return err
	}
	return genBrokenFleets(filepath.Join(corpus, "fleet"), filepath.Join(testdata, "fuzz", "FuzzFleetVerify"))
}

func genBrokenModules(corpus, seeds string) error {
	type entry struct {
		Name string `json:"name"`
		Pass string `json:"pass"` // pass expected to flag it; "" = clean
		Desc string `json:"desc"`
	}
	cases, err := seed.Cases()
	if err != nil {
		return err
	}
	var manifest []entry
	for _, c := range cases {
		// Each case must behave as advertised before being committed
		// as ground truth.
		res := verify.Verify([]verify.Input{{Module: c.Module, Map: c.Map}}, verify.Options{})
		if c.Pass == "" && !res.Ok() {
			return fmt.Errorf("case %s: baseline not clean (%d errors)", c.Name, res.NumError)
		}
		if c.Pass != "" && !res.HasError(c.Pass) {
			return fmt.Errorf("case %s: pass %s did not flag it", c.Name, c.Pass)
		}
		if _, err := writeModule(filepath.Join(corpus, c.Name+".tbm"), c.Module); err != nil {
			return err
		}
		if err := writeMap(filepath.Join(corpus, c.Name+".map.json"), c.Map); err != nil {
			return err
		}
		raw, err := json.Marshal(c.Map)
		if err != nil {
			return err
		}
		if err := writeSeed(seeds, "seed-"+c.Name, raw); err != nil {
			return err
		}
		manifest = append(manifest, entry{Name: c.Name, Pass: c.Pass, Desc: c.Desc})
	}
	return writeManifest(corpus, " ", manifest)
}

func genBrokenFleets(corpus, seeds string) error {
	type entry struct {
		Name    string   `json:"name"`
		Pass    string   `json:"pass"` // pass expected to flag it; "" = clean
		Desc    string   `json:"desc"`
		Modules []string `json:"modules"` // .tbm basenames inside the case dir
	}
	cases, err := seed.FleetCases()
	if err != nil {
		return err
	}
	var manifest []entry
	for _, c := range cases {
		var inputs []verify.Input
		for _, fm := range c.Modules {
			inputs = append(inputs, verify.Input{Module: fm.Module, Path: fm.Name})
		}
		res := verify.Verify(inputs, verify.Options{})
		if c.Pass == "" && !res.Ok() {
			return fmt.Errorf("fleet case %s: baseline not clean (%d errors)", c.Name, res.NumError)
		}
		if c.Pass != "" && !res.HasError(c.Pass) {
			return fmt.Errorf("fleet case %s: pass %s did not flag it", c.Name, c.Pass)
		}
		e := entry{Name: c.Name, Pass: c.Pass, Desc: c.Desc}
		for _, fm := range c.Modules {
			raw, err := writeModule(filepath.Join(corpus, c.Name, fm.Name+".tbm"), fm.Module)
			if err != nil {
				return err
			}
			if err := writeSeed(seeds, "seed-"+c.Name+"-"+fm.Name, raw); err != nil {
				return err
			}
			e.Modules = append(e.Modules, fm.Name+".tbm")
		}
		manifest = append(manifest, e)
	}
	return writeManifest(corpus, " ", manifest)
}
