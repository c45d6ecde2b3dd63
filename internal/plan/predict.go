package plan

// Exact observation prediction. The planner does not compute routes
// itself: Options.Predictor — the topology backend's observation model,
// defaulting to the mesh backend's meshroute.Predictor — walks a flow's
// route and reports each receiving tile with the counter it charges;
// predictKey looks each hop's tile up in the survivor's cell→CHA index
// and renders the observers as a comparable byte key. The topo.Channel
// byte values are part of the key encoding, so the mesh predictor keeps
// producing keys byte-identical to the pre-refactor in-package
// classifier.

import (
	"bytes"

	"coremap/internal/mesh"
)

// routeEndpoints resolves a candidate's source and destination die
// coordinates under placement p.
func (pl *Planner) routeEndpoints(c Candidate, p []mesh.Coord) (src, dst mesh.Coord) {
	if c.Kind == KindMemory {
		src = pl.opts.IMCPositions[c.IMC]
	} else {
		src = p[c.SrcCHA]
	}
	return src, p[c.DstCHA]
}

// cellIndex renders placement p as a cell → CHA table over the
// row-major grid, -1 on cells no CHA occupies. Placements are
// all-distinct (accept enforces it), so every cell holds at most one CHA.
func (pl *Planner) cellIndex(p []mesh.Coord, cell []int16) {
	for i := range cell {
		cell[i] = -1
	}
	for k, t := range p {
		cell[t.Row*pl.opts.Cols+t.Col] = int16(k)
	}
}

// predictKey renders candidate c's predicted observation under survivor
// s as a byte key: for each CHA in ascending order that would observe
// the flow, the pair (channel, CHA). Ascending order matches the order
// probe's counter sweep reports observers in, so two placements share a
// key exactly when the experiment cannot tell them apart. The cost is
// the route length, not the CHA count: the route's hops are looked up
// in the survivor's cell index and insertion-sorted by CHA (a Y-then-X
// route has at most rows+cols-2 hops). The returned slice is
// planner-owned scratch, valid until the next call.
func (pl *Planner) predictKey(c Candidate, s int) []byte {
	src, dst := pl.routeEndpoints(c, pl.survivors[s])
	cell := pl.cells[s]
	pl.hops = pl.opts.Predictor.Route(pl.hops[:0], src, dst)
	key := pl.keyBuf[:0]
	for _, h := range pl.hops {
		k := cell[h.Tile.Row*pl.opts.Cols+h.Tile.Col]
		if k < 0 {
			continue
		}
		key = append(key, 0, 0)
		i := len(key) - 2
		for ; i > 0 && key[i-1] > byte(k); i -= 2 {
			key[i], key[i+1] = key[i-2], key[i-1]
		}
		key[i], key[i+1] = byte(h.Chan), byte(k)
	}
	pl.keyBuf = key
	return key
}

// keyTable counts survivors per predicted observation: an open-addressing
// table over FNV-1a with every key's bytes kept in one arena and
// compared in full on each probe, so two distinct observations never
// share a block (a lossy hash key would merge blocks, change the scores
// and could declare convergence early). Reset reuses every buffer, so
// partitioning allocates nothing once the buffers have grown.
type keyTable struct {
	slots []int32 // 1 + index into ents; 0 marks an empty slot
	ents  []keyEntry
	arena []byte
}

type keyEntry struct {
	start, end int32 // the key's bytes in arena
	count      int
}

// reset empties the table, sized for up to n distinct keys.
func (t *keyTable) reset(n int) {
	size := 8
	for size < 2*n {
		size *= 2
	}
	if len(t.slots) != size {
		t.slots = make([]int32, size)
	} else {
		clear(t.slots)
	}
	t.ents = t.ents[:0]
	t.arena = t.arena[:0]
}

// add counts one survivor under key and returns the key's new count.
func (t *keyTable) add(key []byte) int {
	h := uint32(2166136261)
	for _, b := range key {
		h = (h ^ uint32(b)) * 16777619
	}
	mask := uint32(len(t.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		slot := t.slots[i]
		if slot == 0 {
			start := int32(len(t.arena))
			t.arena = append(t.arena, key...)
			t.ents = append(t.ents, keyEntry{start: start, end: int32(len(t.arena)), count: 1})
			t.slots[i] = int32(len(t.ents))
			return 1
		}
		e := &t.ents[slot-1]
		if bytes.Equal(t.arena[e.start:e.end], key) {
			e.count++
			return e.count
		}
	}
}
