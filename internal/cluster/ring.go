package cluster

// Consistent-hash ring: file jobs shard across workers by hashing the
// same length-prefixed SHA-256 content keys the result store uses
// (store.Key), so a file's verdict and its dispatch target derive from
// one fingerprint. Each worker projects onto the ring at `replicas`
// virtual points; membership changes therefore move only ~1/N of the
// keyspace, so when the coordinator has no store a repeated file reaches
// the worker whose own store holds it.
//
// The ring is not self-locking — the coordinator guards it with its own
// mutex alongside the membership map it mirrors.

import (
	"sort"
	"strconv"

	"webssari/internal/store"
)

// defaultReplicas is the virtual-node count per worker: enough to keep
// the expected load imbalance within a few percent for small clusters,
// small enough that membership changes stay O(replicas · log points).
const defaultReplicas = 64

type ringPoint struct {
	hash uint64
	id   string
}

type ring struct {
	replicas int
	points   []ringPoint // sorted by hash (ties by id for determinism)
}

func newRing(replicas int) *ring {
	if replicas <= 0 {
		replicas = defaultReplicas
	}
	return &ring{replicas: replicas}
}

// hashPoint maps an arbitrary string onto the ring: the first 16 hex
// digits of its store key, read as a uint64. store.Key is a
// length-prefixed SHA-256, so the projection is uniform and stable
// across processes — coordinator restarts re-derive the same ring.
func hashPoint(s string) uint64 {
	h, _ := strconv.ParseUint(store.Key(s)[:16], 16, 64)
	return h
}

// add inserts a worker's virtual points. Adding an existing id is a
// no-op (the points would be identical).
func (r *ring) add(id string) {
	for _, p := range r.points {
		if p.id == id {
			return
		}
	}
	for i := 0; i < r.replicas; i++ {
		r.points = append(r.points, ringPoint{
			hash: hashPoint("vnode|" + id + "|" + strconv.Itoa(i)),
			id:   id,
		})
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].id < r.points[j].id
	})
}

// remove deletes a worker's virtual points.
func (r *ring) remove(id string) {
	kept := r.points[:0]
	for _, p := range r.points {
		if p.id != id {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// sequence returns every distinct worker in ring order starting at the
// successor of key's hash — the dispatch preference order: sequence[0]
// owns the key, and each following entry is the natural failover target
// when everything before it is dead or tripped.
func (r *ring) sequence(key string) []string {
	if len(r.points) == 0 {
		return nil
	}
	h := hashPoint(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	seen := make(map[string]bool)
	var seq []string
	for i := 0; i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.id] {
			seen[p.id] = true
			seq = append(seq, p.id)
		}
	}
	return seq
}
