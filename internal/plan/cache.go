package plan

import (
	"sync"
	"sync/atomic"
)

// The plan cache holds one compiled UpdatePlan per update template —
// the update with its predicate literals and content values stripped.
// The paper's "lightweight" claim rests on Steps 1+2 being schema-level
// work: what they decide for a template never changes after the view is
// compiled (it reads only the ASG and the STAR marks, never base data),
// so under production traffic each template is compiled once and every
// structurally-equal update afterwards is answered off the resident
// plan — its verdict derived by binding the update's values, and, on
// the Apply path, executed through the plan's prepared probe statements
// and translation artifacts. Nothing value-dependent is stored per
// template, so the cache holds as many entries as the traffic has
// templates. Step 3 — the data-driven check — is never cached: it must
// see the current database.
//
// One tier, keyed by the template key xqparse writes
// ((*UpdateQuery).AppendKey, and ScanUpdate straight from the text), so
// a resident template's instances are never parsed (see
// Executor.checkText).

// maxPlans bounds the cache. A full cache is reset wholesale: real
// workloads are template-skewed, so a full cache means adversarial or
// unbounded-distinct traffic where caching cannot help.
const maxPlans = 1 << 10

// Cache is the concurrency-safe plan memo table.
type Cache struct {
	mu    sync.RWMutex
	plans map[string]*UpdatePlan

	// compileMu serializes first compiles (see Executor.compileOnce).
	compileMu sync.Mutex

	hits        atomic.Int64
	misses      atomic.Int64
	planApplies atomic.Int64
}

// NewCache returns an empty plan cache.
func NewCache() *Cache {
	return &Cache{plans: make(map[string]*UpdatePlan)}
}

// CacheStats is a point-in-time snapshot of the plan cache's
// effectiveness counters.
type CacheStats struct {
	// Hits counts checks and applies answered off a resident plan by
	// binding the update's values against it.
	Hits int64 `json:"hits" stat:"cache_hits_total,counter,sum" help:"Checks and applies answered off a resident plan (stored text verdict or bind-time derivation)."`
	// Misses counts template compilations and nothing else. Once the
	// traffic's templates are resident the hit rate reads ~1 whatever
	// the values are; Plans and the compile histogram's count are the
	// numbers that show how many templates the traffic has.
	Misses int64 `json:"misses" stat:"cache_misses_total,counter,sum" help:"Template compilations (the plan cache's only kind of miss)."`
	// TemplateEntries is the current cache size.
	TemplateEntries int `json:"template_entries" stat:",gauge,sum"`
	// Plans counts the compiled UpdatePlans currently cached — one per
	// template entry.
	Plans int `json:"plans" stat:"plan_cache_plans,gauge,sum" help:"Compiled update plans currently cached: one per update template."`
	// PlanApplies counts text applies (Apply, ApplyBatch) executed off
	// a cached compiled plan.
	PlanApplies int64 `json:"plan_applies" stat:"plan_applies_total,counter,sum" help:"Applies executed off a cached compiled plan."`
}

// HitRate returns Hits/(Hits+Misses), 0 when empty.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Stats snapshots the cache counters; safe under concurrent traffic.
func (c *Cache) Stats() CacheStats {
	c.mu.RLock()
	np := len(c.plans)
	c.mu.RUnlock()
	return CacheStats{
		Hits:            c.hits.Load(),
		Misses:          c.misses.Load(),
		TemplateEntries: np,
		Plans:           np,
		PlanApplies:     c.planApplies.Load(),
	}
}

// plan returns the resident UpdatePlan of a template key and counts the
// hit; nil when the template has not been compiled (or the cache was
// reset).
func (c *Cache) plan(key []byte) *UpdatePlan {
	c.mu.RLock()
	p := c.plans[string(key)]
	c.mu.RUnlock()
	if p != nil {
		c.hits.Add(1)
	}
	return p
}

// storePlan records a freshly compiled plan and counts the miss.
func (c *Cache) storePlan(p *UpdatePlan) {
	c.misses.Add(1)
	c.mu.Lock()
	if len(c.plans) >= maxPlans {
		c.plans = make(map[string]*UpdatePlan)
	}
	c.plans[p.Key] = p
	c.mu.Unlock()
}

// cloneShallow copies a schema-level Result so callers (and Apply, which
// appends probes and SQL) can mutate their copy without corrupting the
// plan's. Conditions is the only populated slice after Steps 1+2.
func (r *Result) cloneShallow() *Result {
	cp := *r
	if len(r.Conditions) > 0 {
		cp.Conditions = append([]Condition(nil), r.Conditions...)
	}
	return &cp
}
