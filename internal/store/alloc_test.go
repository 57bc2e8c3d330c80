package store

import (
	"testing"
)

// The group-commit path frames records into the store's reusable buffer
// and issues one write per batch; on the steady state (warm frame buffer,
// existing key) a Put must not allocate. This pins that property.
func TestPutAllocBudget(t *testing.T) {
	s, err := Open(t.TempDir(), Options{NoBackground: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	key := "cat:kasidet|baremetal-sandbox|1"
	val := []byte(`{"category":"deactivated","confidence":0.97}`)
	// Warm the frame buffer and install the key.
	if err := s.Put(key, val); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := s.Put(key, val); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("steady-state Put allocates %.1f objects/op, budget is 2", allocs)
	}
}

// PutBatch amortizes the same way: one frame buffer, one write, one lock
// acquisition for the whole batch.
func TestPutBatchAllocBudget(t *testing.T) {
	s, err := Open(t.TempDir(), Options{NoBackground: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	batch := []Record{
		{Key: "cat:kasidet|baremetal-sandbox|1", Val: []byte(`{"category":"deactivated"}`)},
		{Key: "cat:wannacry|baremetal-sandbox|1", Val: []byte(`{"category":"survived"}`)},
		{Key: "cat:locky|baremetal-sandbox|1", Val: []byte(`{"category":"deactivated"}`)},
		{Key: "cat:spawner|baremetal-sandbox|1", Val: []byte(`{"category":"deactivated"}`)},
	}
	if err := s.PutBatch(batch); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := s.PutBatch(batch); err != nil {
			t.Fatal(err)
		}
	})
	perRecord := allocs / float64(len(batch))
	if perRecord > 2 {
		t.Errorf("steady-state PutBatch allocates %.2f objects/record, budget is 2", perRecord)
	}
}

// A store hit is one pread into one fresh buffer: the value handed back
// is a subslice of the verified frame, and the key echo is compared
// without a string copy. Submit-time lookups run this under the
// service's lock, so it stays at one allocation.
func TestGetAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are not measurable under -race")
	}
	s, err := Open(t.TempDir(), Options{NoBackground: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	key := "cat:kasidet|baremetal-sandbox|1"
	if err := s.Put(key, []byte(`{"category":"deactivated","confidence":0.97}`)); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, ok, err := s.Get(key); !ok || err != nil {
			t.Fatalf("Get(%s) ok=%v err=%v", key, ok, err)
		}
	})
	if allocs > 1 {
		t.Errorf("store hit allocates %.1f objects/op, budget is 1", allocs)
	}
}
