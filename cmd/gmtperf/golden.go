package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
)

// goldenPath is where -update writes, relative to cmd/gmtperf.
const goldenPath = "testdata/golden.json"

// goldenSeeds are the seeds with committed digests: the default and a
// held-out one.
var goldenSeeds = []int64{42, 7}

// The smoke test's gmtd sequence, small enough to run in a unit test.
const (
	smokeName        = "gmtd-mixed-n10"
	smokeSubmissions = 10
)

//go:embed testdata/golden.json
var goldenJSON []byte

func goldenKey(workload string, seed int64) string {
	return workload + "/" + strconv.FormatInt(seed, 10)
}

func loadGoldens() (map[string]string, error) {
	var g map[string]string
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("%s: %v", goldenPath, err)
	}
	return g, nil
}

// updateGoldens recomputes every committed digest from one pass each and
// rewrites goldenPath.
func updateGoldens() error {
	if _, err := os.Stat(goldenPath); err != nil {
		return fmt.Errorf("-update must run from cmd/gmtperf: %v", err)
	}
	g := map[string]string{}
	for _, w := range workloads {
		for _, seed := range goldenSeeds {
			d, err := digestOf(w.prepare(seed))
			if err != nil {
				return fmt.Errorf("%s seed %d: %v", w.name, seed, err)
			}
			g[goldenKey(w.name, seed)] = d
		}
	}
	d, err := digestOf(gmtdBench(42, smokeSubmissions))
	if err != nil {
		return fmt.Errorf("%s: %v", smokeName, err)
	}
	g[goldenKey(smokeName, 42)] = d
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath, append(data, '\n'), 0o644)
}

// digestOf runs one untraced pass and returns its digest.
func digestOf(b bench) (string, error) {
	res, err := safePass(b, nil)
	if err == nil && res.failed > 0 {
		err = fmt.Errorf("%d of %d operations failed", res.failed, b.ops)
	}
	return res.digest, err
}
