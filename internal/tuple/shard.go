// Tuple-hash partitioning for shard-parallel semi-naive evaluation.
// A delta instance is split across N shard instances by hashing each
// tuple's values (Tuple.Hash): every fact lands on exactly one
// shard, so N workers joining against disjoint delta slices enumerate
// every firing the whole delta would, exactly once. The hash mixes
// only the tuple payload (not the relation name): partitioning is a
// routing decision, and any deterministic assignment that covers the
// delta yields the same merged result.
package tuple

// Hash returns a deterministic 64-bit hash of the tuple's values: a
// multiply-xorshift step per value, finished with an avalanche mixer.
// It is the one hash of the package — the membership table places rows
// by it, a relation's fingerprint is the XOR of it over the live
// tuples, and Shard routes on it. The mixer matters: symbol ids are
// dense and structured, the tables use the top bits and Shard reduces
// modulo small n — without finalization real partitions skew badly
// (one shard taking >70% of a 2000-tuple relation in practice). Equal
// tuples hash equally across processes and runs.
func (t Tuple) Hash() uint64 {
	h := uint64(hashSeed)
	for _, v := range t {
		h = mix(h, v)
	}
	return avalanche(h)
}

// Shard returns the shard index of the tuple among n shards.
func (t Tuple) Shard(n int) int {
	if n <= 1 {
		return 0
	}
	return int(t.Hash() % uint64(n))
}

// Partition splits the instance into n disjoint instances by tuple
// hash: fact R(t) lands in part t.Hash() % n. Every part materializes
// every relation of the source (possibly empty), so consumers see a
// uniform schema. The union of the parts is the source instance and
// the parts are pairwise disjoint.
//
// n <= 1 returns a single part sharing the source's relations via
// snapshot (cheap, and keeps the uniform-schema contract).
func (in *Instance) Partition(n int) []*Instance {
	if n <= 1 {
		return []*Instance{in.Snapshot()}
	}
	parts := make([]*Instance, n)
	for i := range parts {
		parts[i] = NewInstance()
	}
	for name, r := range in.rels {
		rels := make([]*Relation, n)
		for i := range rels {
			rels[i] = NewRelation(r.arity)
			parts[i].put(name, rels[i])
		}
		r.Each(func(t Tuple) bool {
			rels[t.Shard(n)].Insert(t)
			return true
		})
	}
	return parts
}
