package listset

import (
	"listset/internal/batch"
)

// Batched and ranged operations. The batch contract and its fallback
// live in internal/batch (DESIGN.md §13): a batch behaves exactly like
// its sorted, deduplicated keys applied one at a time, each key's
// operation linearizing individually within the call in ascending key
// order, and the returned count is the number of effective per-key
// operations. The three protagonists (VBL, Lazy, Harris marker), both
// skip lists and the sharded façade implement Batcher and Ranger
// natively with an amortized one-pass traversal; Loader is native only
// on the VB skip list and the façade. Every other implementation keeps
// working through the fallback the As* functions return.

// Batcher is the batch surface of a set: InsertAll, RemoveAll and
// ContainsAll, each returning its count of effective keys.
type Batcher = batch.Batcher

// Ranger is the ordered-read surface of a set: RangeScan over [lo, hi)
// and Ascend from a key, both ascending and duplicate-free.
type Ranger = batch.Ranger

// Loader is the bulk-population surface of a set. A native Load is for
// setup at quiescence and must not race with other operations.
type Loader = batch.Loader

// AsBatcher returns s's native batch surface when it has one, or a
// fallback that sorts and deduplicates the batch and applies it one
// key at a time.
func AsBatcher(s Set) Batcher { return batch.AsBatcher(s) }

// AsRanger returns s's native range surface when it has one, or a
// fallback built on Snapshot.
func AsRanger(s Set) Ranger { return batch.AsRanger(s) }

// AsLoader returns s's native bulk-load surface when it has one, or a
// fallback that loads through s's batch surface (AsBatcher(s).InsertAll).
func AsLoader(s Set) Loader { return batch.AsLoader(s) }
