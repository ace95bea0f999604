package main

import (
	"crypto/sha256"
	"encoding/json"
	"sort"
	"sync/atomic"
	"time"
)

// The sandbox's vCPUs do not run at one speed: the same instructions
// take up to 1.6x longer for minutes at a time (steal the guest cannot
// see is charged as user time), and every timing of the daemon — wall
// or CPU — scales with it. So each client interleaves a fixed reference
// computation with its requests, built from the standard library only
// and independent of the code under test, and the end-to-end timings
// are reported scaled by how long that reference took against
// refNominalNs: as on a machine on which the reference unit takes
// exactly refNominalNs. The raw values and the factor are printed
// beside them.

// refNominalNs is the reference unit's duration on this sandbox in its
// fast state; a measured unit of twice that means the machine ran at
// half speed.
const refNominalNs = 250_000

// refEvery is how many requests a client sends between reference units:
// about 2 % of a client's time on the slowest workload.
const refEvery = 16

type refDoc struct {
	IDs   []int             `json:"ids"`
	Attrs map[string]string `json:"attrs"`
	Text  string            `json:"text"`
}

var refInput = func() refDoc {
	d := refDoc{Attrs: make(map[string]string), Text: "FOR $o IN document(\"view.xml\")/region/nation/customer/order"}
	for i := 0; i < 48; i++ {
		d.IDs = append(d.IDs, (i*7919)%257)
		d.Attrs[string(rune('a'+i%26))+string(rune('a'+i/26))] = d.Text[i : i+8]
	}
	return d
}()

// refSink keeps the compiler from discarding the reference work; both
// clients store to it.
var refSink atomic.Uint32

// refUnit runs the reference computation once — encode, decode, sort,
// hash: the kind of work a JSON gateway does — and returns how long it
// took on the wall clock.
func refUnit() int64 {
	start := time.Now()
	var sink byte
	for rep := 0; rep < 4; rep++ {
		b, _ := json.Marshal(refInput) // a struct of ints and strings cannot fail
		var d refDoc
		_ = json.Unmarshal(b, &d) // round trip of the line above
		sort.Ints(d.IDs)
		sum := sha256.Sum256(b)
		sink ^= sum[0] ^ byte(d.IDs[0])
	}
	refSink.Store(uint32(sink))
	return time.Since(start).Nanoseconds()
}

// speedFactors turn reference samples into the two factors timings are
// divided by: the mean (what a rate or a total saw) and the median (what
// a typical request saw). 1 means the nominal machine, 2 a machine at
// half speed. No samples yield 1.
func speedFactors(refNs []int64) (meanFactor, medFactor float64) {
	if len(refNs) == 0 {
		return 1, 1
	}
	vals := make([]float64, len(refNs))
	for i, v := range refNs {
		vals[i] = float64(v)
	}
	return mean(vals) / refNominalNs, median(vals) / refNominalNs
}
