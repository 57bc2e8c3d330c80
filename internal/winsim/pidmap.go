package winsim

// PIDMap is per-process state keyed by PID that reads exactly like a
// map[int]T, with the zero T meaning "absent". Once bound to a
// ProcessTable, the PIDs that table minted index a dense slice (see
// ProcessTable.slot), so a run's per-process state grows by append instead
// of by map rehash. Any other PID — a decoy's 90000+, or one the table has
// not minted yet — lives in a fallback map, and stays there once stored.
// The zero PIDMap is unbound: everything goes to the map.
type PIDMap[T comparable] struct {
	procs  *ProcessTable
	dense  []T
	sparse map[int]T
	n      int // non-zero entries
}

// Bind makes the PIDs procs mints index the dense slice, sized to the
// table's current length. Only the first Bind takes effect: a table never
// un-mints a PID, so a value stored densely is always found there again.
func (m *PIDMap[T]) Bind(procs *ProcessTable) {
	if m.procs != nil {
		return
	}
	m.procs = procs
	m.dense = make([]T, len(procs.procs))
}

// slot returns the dense index for pid, or ok=false when pid's value
// belongs in the fallback map.
func (m *PIDMap[T]) slot(pid int) (int, bool) {
	if m.procs == nil {
		return 0, false
	}
	if len(m.sparse) > 0 {
		if _, stored := m.sparse[pid]; stored {
			return 0, false
		}
	}
	return m.procs.slot(pid)
}

// Get returns pid's value, or the zero T when none is stored.
func (m *PIDMap[T]) Get(pid int) T {
	if i, ok := m.slot(pid); ok {
		if i < len(m.dense) {
			return m.dense[i]
		}
		var zero T
		return zero
	}
	return m.sparse[pid]
}

// Set stores v for pid; storing the zero T deletes.
func (m *PIDMap[T]) Set(pid int, v T) {
	var zero T
	old := m.Get(pid)
	switch {
	case old == zero && v != zero:
		m.n++
	case old != zero && v == zero:
		m.n--
	}
	i, ok := m.slot(pid)
	switch {
	case ok:
		if i >= len(m.dense) {
			m.dense = append(m.dense, make([]T, i+1-len(m.dense))...)
		}
		m.dense[i] = v
	case v == zero:
		delete(m.sparse, pid)
	default:
		if m.sparse == nil {
			m.sparse = make(map[int]T)
		}
		m.sparse[pid] = v
	}
}

// Len returns the number of PIDs holding a non-zero value.
func (m *PIDMap[T]) Len() int { return m.n }
