package main

import (
	"bytes"
	"fmt"
	"hash/maphash"
	"path/filepath"
	"runtime"
	"sync"

	"scarecrow/internal/analysis"
	"scarecrow/internal/core"
	"scarecrow/internal/malware"
	"scarecrow/internal/store"
	"scarecrow/internal/winsim"
)

// The verdict oracle. For every key a workload serves, the benchmark
// computes a reference verdict outside the timed region, with a lab
// built exactly as service.worker builds one (the profile plus
// core.RecommendedConfig of it, then RunSampleSeeded and MarshalVerdict),
// and every served verdict must equal it byte for byte. Served bytes are
// compared by length plus a 64-bit keyed hash, so the measured phase
// need not retain megabytes of verdicts.

var verdictSeed = maphash.MakeSeed()

func digest(b []byte) uint64 { return maphash.Bytes(verdictSeed, b) }

// reference is a cell's expected verdict.
type reference struct {
	hash     uint64
	size     int
	category string
}

type oracle struct {
	mu   sync.Mutex
	refs map[string]reference
}

func newOracle() *oracle { return &oracle{refs: make(map[string]reference)} }

func (o *oracle) get(key string) (reference, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	r, ok := o.refs[key]
	return r, ok
}

func (o *oracle) put(key string, r reference) {
	o.mu.Lock()
	o.refs[key] = r
	o.mu.Unlock()
}

// labSet is one goroutine's labs, one per profile, as a service worker
// keeps them.
type labSet map[winsim.ProfileName]*analysis.Lab

func (ls labSet) lab(p winsim.ProfileName) *analysis.Lab {
	lab, ok := ls[p]
	if !ok {
		lab = &analysis.Lab{Profile: p, Config: core.RecommendedConfig(string(p))}
		ls[p] = lab
	}
	return lab
}

func runReference(ls labSet, c cell) (analysis.SampleResult, []byte, error) {
	spec, err := malware.Resolve(c.Specimen)
	if err != nil {
		return analysis.SampleResult{}, nil, fmt.Errorf("oracle: resolving %s: %w", c.Specimen, err)
	}
	res := ls.lab(c.profile()).RunSampleSeeded(spec, c.Seed)
	v, err := res.MarshalVerdict()
	if err != nil {
		return res, nil, fmt.Errorf("oracle: marshalling %s: %w", c.key(), err)
	}
	return res, v, nil
}

func refOf(res analysis.SampleResult, v []byte) reference {
	return reference{hash: digest(v), size: len(v), category: res.Verdict.Category.String()}
}

// compute fills in the reference of every cell not yet known, on
// `workers` goroutines each owning its own labs.
func (o *oracle) compute(cells []cell, workers int) error {
	var todo []cell
	seen := make(map[string]bool)
	for _, c := range cells {
		k := c.key()
		if _, ok := o.get(k); ok || seen[k] {
			continue
		}
		seen[k] = true
		todo = append(todo, c)
	}
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ls := labSet{}
			for i := w; i < len(todo); i += workers {
				res, v, err := runReference(ls, todo[i])
				if err != nil {
					errs[w] = err
					return
				}
				o.put(todo[i].key(), refOf(res, v))
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// served is one verdict a workload received.
type served struct {
	cell cell
	hash uint64
	size int
	// category, set for campaign cells, is checked instead of the bytes:
	// a campaign event carries the verdict's category only.
	category string
	// failed marks a refused or failed request: a submit error, a
	// transport error, a non-2xx status, a cell error, or a verdict of
	// the error category.
	failed bool
}

// verdictServed records verdict bytes a workload received for c. A
// verdict of the error category counts as a failure.
func verdictServed(c cell, v []byte) served {
	return served{cell: c, hash: digest(v), size: len(v), failed: errorVerdict(v)}
}

// errorVerdict reports whether verdict bytes carry the error category.
// The first "category" key of a verdict document is its top-level one:
// only string fields precede it, and quotes inside those are escaped.
func errorVerdict(v []byte) bool {
	_, rest, ok := bytes.Cut(v, []byte(`"category":"`))
	return ok && bytes.HasPrefix(rest, []byte(analysis.VerdictError.String()+`"`))
}

// verdictCheck tallies served verdicts against the oracle.
type verdictCheck struct {
	Served     int      `json:"served"`
	Failed     int      `json:"failed"`
	Mismatched int      `json:"mismatched"`
	Examples   []string `json:"examples,omitempty"`
}

func (vc *verdictCheck) note(format string, args ...any) {
	if len(vc.Examples) < 5 {
		vc.Examples = append(vc.Examples, fmt.Sprintf(format, args...))
	}
}

// check compares served verdicts with their references. Failed ones are
// counted and not compared.
func (o *oracle) check(vc *verdictCheck, got []served) {
	for _, s := range got {
		vc.Served++
		if s.failed {
			vc.Failed++
			continue
		}
		ref, ok := o.get(s.cell.key())
		switch {
		case !ok:
			vc.Mismatched++
			vc.note("%s: no reference verdict", s.cell.key())
		case s.category != "":
			if s.category != ref.category {
				vc.Mismatched++
				vc.note("%s: category %s, reference %s", s.cell.key(), s.category, ref.category)
			}
		case ref.hash != s.hash || ref.size != s.size:
			vc.Mismatched++
			vc.note("%s: served %d bytes that differ from the %d-byte reference", s.cell.key(), s.size, ref.size)
		}
	}
}

// decomposition holds per-call measurements from driving cells through
// each layer's public calls one at a time.
type decomposition struct {
	resolve, clone, run, marshal, put, get     []float64 // durations, µs
	resolveAllocs, cloneAllocs, runAllocs      []float64
	apiCalls, selfSpawns, virtualS, frameBytes []float64
	// problems lists cells whose repeated runs gave different bytes.
	problems []string
}

// decomposeStoreRecords is how many verdicts one decomposition store
// takes before the next call starts a fresh one.
const decomposeStoreRecords = 400

// decompose drives cells, cycled until at least minSamples calls have
// been made, through malware.Resolve, Snapshot.Clone,
// Lab.RunSampleSeeded, MarshalVerdict, Store.PutBatch and Store.Get on
// one goroutine, with a span around each call. It records the reference
// of every cell it runs and checks that the store returns what it was
// given. Allocation counts are exact because nothing else runs lab work
// meanwhile.
func (o *oracle) decompose(cells []cell, minSamples int, tr *tracer, dir string) (*decomposition, error) {
	if len(cells) == 0 {
		return &decomposition{}, nil
	}
	var st *store.Store
	defer func() {
		if st != nil {
			st.Close()
		}
	}()
	d := &decomposition{}
	ls := labSet{}
	templates := make(map[winsim.ProfileName]*winsim.Snapshot)
	var ms runtime.MemStats
	mallocs := func() float64 {
		runtime.ReadMemStats(&ms)
		return float64(ms.Mallocs)
	}
	for i := 0; i < max(minSamples, len(cells)); i++ {
		if i%decomposeStoreRecords == 0 {
			// A fresh store every so often, as each measured round has:
			// merges of an ever-growing log would dominate the calls.
			if st != nil {
				st.Close()
			}
			var err error
			if st, err = store.Open(filepath.Join(dir, fmt.Sprint(i)), store.Options{}); err != nil {
				return nil, fmt.Errorf("decomposition store: %w", err)
			}
		}
		c := cells[i%len(cells)]
		req := int64(i + 1)
		key := c.key()
		root := tr.begin("bench", "decompose", 0, req)

		m0 := mallocs()
		sp := tr.begin("malware", "malware.Resolve", root.id(), req)
		spec, err := malware.Resolve(c.Specimen)
		d.resolve = append(d.resolve, us(sp.end()))
		m1 := mallocs()
		if err != nil {
			return nil, fmt.Errorf("decompose: resolving %s: %w", c.Specimen, err)
		}

		p := c.profile()
		tmpl, ok := templates[p]
		if !ok {
			tmpl = winsim.NewProfileMachine(p, 0).Snapshot()
			templates[p] = tmpl
		}
		m2 := mallocs()
		sp = tr.begin("winsim", "winsim.Snapshot.Clone", root.id(), req)
		machine := tmpl.Clone(c.Seed)
		d.clone = append(d.clone, us(sp.end()))
		m3 := mallocs()
		machine.Tracer.Release()

		lab := ls.lab(p)
		m4 := mallocs()
		sp = tr.begin("analysis", "analysis.Lab.RunSampleSeeded", root.id(), req)
		res := lab.RunSampleSeeded(spec, c.Seed)
		d.run = append(d.run, us(sp.end()))
		m5 := mallocs()

		sp = tr.begin("analysis", "analysis.SampleResult.MarshalVerdict", root.id(), req)
		v, err := res.MarshalVerdict()
		d.marshal = append(d.marshal, us(sp.end()))
		if err != nil {
			return nil, fmt.Errorf("decompose: marshalling %s: %w", key, err)
		}

		sp = tr.begin("store", "store.Store.PutBatch", root.id(), req)
		err = st.PutBatch([]store.Record{{Key: key, Val: v}})
		d.put = append(d.put, us(sp.end()))
		if err != nil {
			return nil, fmt.Errorf("decompose: PutBatch %s: %w", key, err)
		}
		sp = tr.begin("store", "store.Store.Get", root.id(), req)
		back, ok, err := st.Get(key)
		d.get = append(d.get, us(sp.end()))
		if err != nil || !ok || !bytes.Equal(back, v) {
			return nil, fmt.Errorf("decompose: store returned a different value for %s (ok=%v, err=%v)", key, ok, err)
		}
		root.end()

		d.resolveAllocs = append(d.resolveAllocs, m1-m0)
		d.cloneAllocs = append(d.cloneAllocs, m3-m2)
		d.runAllocs = append(d.runAllocs, m5-m4)
		d.apiCalls = append(d.apiCalls, float64(apiCalls(res)))
		d.selfSpawns = append(d.selfSpawns, float64(res.Raw.Summary.SelfSpawns+res.Protected.Summary.SelfSpawns))
		d.virtualS = append(d.virtualS, (res.Raw.VirtualTime + res.Protected.VirtualTime).Seconds())
		d.frameBytes = append(d.frameBytes, float64(12+len(key)+len(v)))

		// A cell run again (cells cycle to reach minSamples) must give the
		// same bytes; the first run stays the reference.
		ref := refOf(res, v)
		if prev, ok := o.get(key); !ok {
			o.put(key, ref)
		} else if (prev.hash != ref.hash || prev.size != ref.size) && len(d.problems) < 10 {
			d.problems = append(d.problems, fmt.Sprintf("%s is not deterministic: reruns gave %d and %d bytes", key, prev.size, ref.size))
		}
	}
	return d, nil
}

func apiCalls(res analysis.SampleResult) int {
	n := 0
	for _, s := range []map[string]int{res.Raw.Summary.APICalls, res.Protected.Summary.APICalls} {
		for _, c := range s {
			n += c
		}
	}
	return n
}
