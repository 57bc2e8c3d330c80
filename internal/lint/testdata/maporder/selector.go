package lintfixture

import "sort"

// Listing is a result document whose entry list is grown through a
// field selector rather than a bare identifier.
type Listing struct {
	Entries []string
}

// PlantFields appends to a field of a variable declared outside the
// loop, in iteration order: flagged.
func PlantFields(m map[string]int) Listing {
	var l Listing
	for k := range m { // want `iteration order of m flows into ordered output`
		l.Entries = append(l.Entries, k)
	}
	return l
}

// PlantFieldsSorted grows the same field but sorts it afterwards: clean.
func PlantFieldsSorted(m map[string]int) Listing {
	var l Listing
	for k := range m {
		l.Entries = append(l.Entries, k)
	}
	sort.Strings(l.Entries)
	return l
}

// PlantFieldsAnnotated grows the field where the caller treats the list
// as a set; the annotation accepts it.
func PlantFieldsAnnotated(m map[string]int, l *Listing) {
	for k := range m { //maporder:ok — consumer treats Entries as a set
		l.Entries = append(l.Entries, k)
	}
}

// PerKey builds a loop-local value whose field is grown inside the
// body; nothing escapes in iteration order: clean.
func PerKey(m map[string][]string) int {
	n := 0
	for _, vs := range m {
		var local Listing
		for _, v := range vs {
			local.Entries = append(local.Entries, v)
		}
		n += len(local.Entries)
	}
	return n
}
