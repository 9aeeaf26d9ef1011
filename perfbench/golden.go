package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
)

// golden.json holds the SHA-256 of routergeo's standard output (kind
// "repro") and of the drift table (kind "drift") per seed, recorded
// with -record-golden. A change that alters either output must re-record
// it, which makes the change visible in review.
//
//go:embed golden.json
var goldenJSON []byte

var goldens = func() map[string]map[string]string {
	var m map[string]map[string]string
	if err := json.Unmarshal(goldenJSON, &m); err != nil {
		panic("perfbench: golden.json: " + err.Error())
	}
	return m
}()

func goldenDigest(kind string, seed int64) (string, bool) {
	d, ok := goldens[kind][strconv.FormatInt(seed, 10)]
	return d, ok
}

// recordGolden computes both digests for seeds 1..n and prints them as
// golden.json content.
func recordGolden(b *bench, n int) error {
	out := map[string]map[string]string{"repro": {}, "drift": {}}
	dir, err := b.workDir("golden")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	for seed := int64(1); seed <= int64(n); seed++ {
		b.seed = seed
		r, err := b.execRouterGeo(dir, reproArgs(seed)...)
		if err != nil {
			return err
		}
		env, err := newDriftEnv(context.Background(), seed)
		if err != nil {
			return err
		}
		var table bytes.Buffer
		if err := driftPass(context.Background(), &table, env); err != nil {
			return err
		}
		key := strconv.FormatInt(seed, 10)
		out["repro"][key] = digest(r.stdout)
		out["drift"][key] = digest(table.Bytes())
		fmt.Fprintf(os.Stderr, "seed %d recorded\n", seed)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
