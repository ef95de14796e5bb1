package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// digests.json holds reference case digests per workload and seed:
// workload name -> seed -> one digest per case, in case order. They
// are recorded with -record-digests from the benchmark's case loop,
// which TestPipelineEquivalence holds to eval.RunOnCircuitCtx; a change
// that alters any diagnosis then fails the output check.
//
//go:embed digests.json
var digestsJSON []byte

type digestBook map[string]map[string][]string

func loadDigests(data []byte) (digestBook, error) {
	book := digestBook{}
	if err := json.Unmarshal(data, &book); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return book, nil
}

// recordedDigests returns the reference digests of a workload and
// seed, if recorded. An unreadable digests.json is an error, not a
// missing recording.
func recordedDigests(workload string, seed uint64) ([]string, bool, error) {
	book, err := loadDigests(digestsJSON)
	if err != nil {
		return nil, false, err
	}
	d, ok := book[workload][strconv.FormatUint(seed, 10)]
	return d, ok, nil
}

// recordDigests runs every table1 workload's cases for seeds FROM-TO
// and stores their digests in path, keeping entries already there.
func recordDigests(span, path string) error {
	from, to, ok := strings.Cut(span, "-")
	lo, err1 := strconv.ParseUint(from, 10, 64)
	hi, err2 := strconv.ParseUint(to, 10, 64)
	if !ok || err1 != nil || err2 != nil || hi < lo {
		return fmt.Errorf("-record-digests wants FROM-TO, got %q", span)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	book, err := loadDigests(data)
	if err != nil {
		return err
	}
	for _, spec := range []table1Spec{table1Analytic, table1MC} {
		if book[spec.Name] == nil {
			book[spec.Name] = map[string][]string{}
		}
		for seed := lo; seed <= hi; seed++ {
			t0 := time.Now()
			cases, err := table1Results(spec, seed)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", spec.Name, seed, err)
			}
			var ds []string
			for _, cs := range cases {
				ds = append(ds, caseDigest(cs))
			}
			book[spec.Name][strconv.FormatUint(seed, 10)] = ds
			fmt.Fprintf(os.Stderr, "recorded %s seed %d (%.2fs)\n", spec.Name, seed, time.Since(t0).Seconds())
		}
	}
	data, err = json.MarshalIndent(book, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
