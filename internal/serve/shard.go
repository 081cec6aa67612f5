package serve

import (
	"context"
	"sort"
	"sync"
	"time"

	"iotlan"
	"iotlan/internal/analysis"
	"iotlan/internal/engine"
	"iotlan/internal/inspector"
)

// fleetShard is one hash slice of the fleet: households whose IDs map to it
// under engine.ShardOf, an independent lock, a version counter bumped on
// every inspector mutation, and the incrementally maintained merged partial
// aggregates for the sharded artifacts. Sharding is purely an
// availability/latency structure — artifact bytes are identical for any
// shard count, because the partial aggregates merge partition-invariantly
// (internal/analysis/partial.go) and every read-side assembly sorts by
// household ID.
type fleetShard struct {
	mu         sync.Mutex
	households map[string]*householdState
	version    uint64
	// inspectorN counts households with a crowdsourced record — the
	// denominator the live aggregates cover.
	inspectorN int
	// liveEntropy/liveMitigations are the shard's *live* merged partials:
	// every ingest folds the household's previous contribution out and the
	// new one in (serve.go foldHousehold), so a read snapshots running
	// counts instead of recomputing the shard.
	liveEntropy     *analysis.EntropyPartial
	liveMitigations *analysis.MitigationPartial
}

func newShards(n int) []*fleetShard {
	shards := make([]*fleetShard, n)
	for i := range shards {
		shards[i] = &fleetShard{
			households:      make(map[string]*householdState),
			liveEntropy:     analysis.NewEntropyPartial(),
			liveMitigations: analysis.NewMitigationPartial(),
		}
	}
	return shards
}

// shardFor maps a household ID to its shard. The hash is process-independent
// (FNV-1a), so checkpoints, restarts, and any two servers with the same
// shard count agree on placement.
func (s *Server) shardFor(id string) *fleetShard {
	return s.shards[engine.ShardOf(id, len(s.shards))]
}

// household returns (creating if needed) a household's state. Caller holds
// sh.mu.
func (sh *fleetShard) household(id string) *householdState {
	st, ok := sh.households[id]
	if !ok {
		st = &householdState{protocols: make(map[string]int), sources: make(map[string]bool)}
		sh.households[id] = st
	}
	return st
}

// inspectorSnapshot returns the shard's crowdsourced households in sorted-ID
// order. Caller holds sh.mu; the households themselves are shared immutably
// (ingest replaces them whole, never mutates).
func (sh *fleetShard) inspectorSnapshot() []*inspector.Household {
	ids := make([]string, 0, len(sh.households))
	for id, st := range sh.households {
		if st.inspector != nil {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	out := make([]*inspector.Household, len(ids))
	for i, id := range ids {
		out[i] = sh.households[id].inspector
	}
	return out
}

// addContrib folds one household's singleton partials into the live
// aggregates; subContrib retracts them. Caller holds sh.mu.
func (sh *fleetShard) addContrib(c *analysis.HouseholdPartial) {
	sh.liveEntropy.Add(c.Entropy)
	sh.liveMitigations.Add(c.Mitigations)
}

func (sh *fleetShard) subContrib(c *analysis.HouseholdPartial) {
	sh.liveEntropy.Sub(c.Entropy)
	sh.liveMitigations.Sub(c.Mitigations)
}

// shardedArtifact describes one artifact served by per-shard partial merge:
// how to snapshot the live incremental aggregate (the read path), and how to
// recompute the partial from a household snapshot (the self-check's oracle).
type shardedArtifact struct {
	batch func([]*inspector.Household) any
	// live clones the shard's incrementally maintained aggregate. Caller
	// holds sh.mu.
	live func(*fleetShard) any
}

// shardedArtifacts maps the artifacts served via per-shard partial merge.
// Everything else takes the full-snapshot Study path in RunFleetArtifact.
var shardedArtifacts = map[string]shardedArtifact{
	"table2": {
		batch: func(hhs []*inspector.Household) any { return analysis.EntropyPartialOf(hhs, nil) },
		live:  func(sh *fleetShard) any { return sh.liveEntropy.Clone() },
	},
	"mitigations": {
		batch: func(hhs []*inspector.Household) any { return analysis.MitigationPartialOf(hhs, nil) },
		live:  func(sh *fleetShard) any { return sh.liveMitigations.Clone() },
	},
}

// renderSharded merges shard partials for one sharded artifact through the
// same iotlan result constructors the offline Study uses — shared by the
// read path and the self-check so "byte-identical" means the full rendered
// surface.
func renderSharded(name string, parts []any) iotlan.Result {
	switch name {
	case "table2":
		ps := make([]*analysis.EntropyPartial, len(parts))
		for i, p := range parts {
			ps[i] = p.(*analysis.EntropyPartial)
		}
		return iotlan.EntropyResult(analysis.MergeEntropy(ps))
	case "mitigations":
		ps := make([]*analysis.MitigationPartial, len(parts))
		for i, p := range parts {
			ps[i] = p.(*analysis.MitigationPartial)
		}
		return iotlan.MitigationResult(analysis.MergeMitigations(ps))
	}
	panic("serve: renderSharded of unknown artifact " + name)
}

// partialFor snapshots the shard's live partial aggregate for one artifact
// plus the household count and shard version it corresponds to. The clone
// is a counter copy taken under the shard lock, so value, count and version
// are one consistent state; the whole-read memo (fleetMemo, labelled with
// the observed version vector) is the only read cache.
func (sh *fleetShard) partialFor(sa shardedArtifact) (any, int, uint64) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sa.live(sh), sh.inspectorN, sh.version
}

// runShardedArtifact serves table2/mitigations by merging per-shard partial
// aggregates at read time (fanned out across the worker budget, merged by
// shard index — never completion order) and rendering the merged rows
// through the same iotlan result constructors the offline Study uses.
// Output bytes are identical to the full-snapshot path for any shard count.
//
// The memo is labeled with the per-shard version *vector the sweep actually
// observed* — partialFor returns each contribution's version alongside the
// value. The previous fleet-version label was read before the sweep, so a
// racing ingest could memoize a body mixing shard states under a version
// that matched neither; with the vector label, a hit requires every shard
// to still be exactly at the version its contribution came from.
func (s *Server) runShardedArtifact(ctx context.Context, a iotlan.Artifact, sa shardedArtifact) ([]byte, error) {
	s.mu.Lock()
	memo, ok := s.fleetMemo[a.Name]
	s.mu.Unlock()
	if ok && s.shardVersionsMatch(memo.shardVers) {
		s.reg.Counter("serve_fleet_cache", "result", "hit").Inc()
		return memo.body, nil
	}
	s.reg.Counter("serve_fleet_cache", "result", "miss").Inc()

	bStart := time.Now()
	_, bspan := s.spans.StartSpan(ctx, "serve", "artifact.build", "artifact", a.Name)
	type contribution struct {
		val any
		n   int
		ver uint64
	}
	contribs := engine.Map(s.cfg.Workers, len(s.shards), func(i int) contribution {
		val, n, ver := s.shards[i].partialFor(sa)
		return contribution{val, n, ver}
	})
	households := 0
	observed := make([]uint64, len(contribs))
	parts := make([]any, len(contribs))
	for i, c := range contribs {
		households += c.n
		observed[i] = c.ver
		parts[i] = c.val
	}
	res := renderSharded(a.Name, parts)
	bspan.End()
	s.stageObserve("artifact.build", time.Since(bStart))

	body := mustJSON(artifactReport{
		Name:       a.Name,
		PaperRef:   a.PaperRef,
		Kind:       a.Kind,
		Households: households,
		ID:         res.ID,
		Rendered:   res.Rendered,
		Metrics:    res.Metrics,
	})
	s.mu.Lock()
	s.fleetMemo[a.Name] = fleetEntry{shardVers: observed, body: body}
	s.mu.Unlock()
	return body, nil
}

// shardVersionsMatch reports whether every shard currently sits at the
// version recorded in vers — the memo-hit condition for sharded artifacts.
func (s *Server) shardVersionsMatch(vers []uint64) bool {
	if len(vers) != len(s.shards) {
		return false
	}
	for i, sh := range s.shards {
		sh.mu.Lock()
		v := sh.version
		sh.mu.Unlock()
		if v != vers[i] {
			return false
		}
	}
	return true
}
