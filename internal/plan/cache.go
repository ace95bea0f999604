package plan

import (
	"hash/maphash"
	"sync"
	"sync/atomic"

	"repro/internal/xqparse"
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
// template, so the template tier holds as many entries as the traffic
// has templates. Step 3 — the data-driven check — is never cached: it
// must see the current database.
//
// Two tiers:
//
//   - a template tier keyed by the value-stripped fingerprint (see
//     fingerprint.go), holding the compiled UpdatePlan, and
//   - a text tier keyed by the raw update string, which remembers the
//     parse and the verdict of byte-identical resubmissions (the common
//     retry / hot-update shape). A text is admitted on its second
//     sighting, so traffic whose every text is fresh cannot fill it.

const (
	// maxTexts and maxPlans bound the tiers. A full tier is reset
	// wholesale: real workloads are template-skewed, so a full tier
	// means adversarial or unbounded-distinct traffic where caching
	// cannot help. A plan is far heavier than a text entry, hence the
	// smaller bound.
	maxTexts = 1 << 14
	maxPlans = 1 << 10
	// doorSlots sizes the text tier's doorkeeper: the hashes of recently
	// seen, not yet admitted texts, one per slot.
	doorSlots = 1 << 12
)

// textEntry is one text-tier slot: the parse result plus the verdict.
type textEntry struct {
	parsed *xqparse.UpdateQuery
	res    *Result
}

// Cache is the concurrency-safe two-tier plan memo table.
type Cache struct {
	mu     sync.RWMutex
	byText map[string]textEntry
	plans  map[string]*UpdatePlan

	// compileMu serializes first compiles (see Executor.compileOnce).
	compileMu sync.Mutex

	// door is the text tier's doorkeeper: slot hash%doorSlots holds the
	// hash of the last unadmitted text that landed there. A text whose
	// hash is already in its slot is on its second sighting.
	seed maphash.Seed
	door [doorSlots]atomic.Uint64

	hits        atomic.Int64
	misses      atomic.Int64
	textHits    atomic.Int64
	planApplies atomic.Int64
}

// NewCache returns an empty plan cache.
func NewCache() *Cache {
	return &Cache{
		byText: make(map[string]textEntry),
		plans:  make(map[string]*UpdatePlan),
		seed:   maphash.MakeSeed(),
	}
}

// CacheStats is a point-in-time snapshot of the plan cache's
// effectiveness counters.
type CacheStats struct {
	// Hits counts checks and applies answered off a resident plan: a
	// text-tier verdict, or a verdict derived by binding the update's
	// values against its template's plan.
	Hits int64 `json:"hits"`
	// Misses counts template compilations and nothing else. Once the
	// traffic's templates are resident the hit rate reads ~1 whatever
	// the values are; Plans and the compile histogram's count are the
	// numbers that show how many templates the traffic has.
	Misses int64 `json:"misses"`
	// TextHits counts the subset of Hits that also skipped parsing.
	TextHits int64 `json:"text_hits"`
	// TextEntries and TemplateEntries are the current tier sizes.
	TextEntries     int `json:"text_entries"`
	TemplateEntries int `json:"template_entries"`
	// Plans counts the compiled UpdatePlans currently cached — one per
	// template entry.
	Plans int `json:"plans"`
	// PlanApplies counts text applies (Apply, ApplyBatch) executed off
	// a cached compiled plan.
	PlanApplies int64 `json:"plan_applies"`
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
	nt, np := len(c.byText), len(c.plans)
	c.mu.RUnlock()
	return CacheStats{
		Hits:            c.hits.Load(),
		Misses:          c.misses.Load(),
		TextHits:        c.textHits.Load(),
		TextEntries:     nt,
		TemplateEntries: np,
		Plans:           np,
		PlanApplies:     c.planApplies.Load(),
	}
}

// lookupText serves a byte-identical resubmission without parsing.
func (c *Cache) lookupText(text string) (*Result, bool) {
	c.mu.RLock()
	e, ok := c.byText[text]
	c.mu.RUnlock()
	if !ok {
		return nil, false
	}
	c.hits.Add(1)
	c.textHits.Add(1)
	return e.res.cloneShallow(e.parsed), true
}

// admitText records text's parse and verdict in the text tier if this is
// at least its second sighting; a first sighting only leaves its hash
// with the doorkeeper.
func (c *Cache) admitText(text string, u *xqparse.UpdateQuery, res *Result) {
	h := maphash.String(c.seed, text)
	if c.door[h%doorSlots].Swap(h) != h {
		return
	}
	stored := res.cloneShallow(u)
	c.mu.Lock()
	if len(c.byText) >= maxTexts {
		c.byText = make(map[string]textEntry)
	}
	c.byText[text] = textEntry{parsed: u, res: stored}
	c.mu.Unlock()
}

// plan returns the resident UpdatePlan of a template and counts the
// hit; nil when the template has not been compiled (or the tier was
// reset).
func (c *Cache) plan(key string) *UpdatePlan {
	c.mu.RLock()
	p := c.plans[key]
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
// cached one. Conditions is the only populated slice after Steps 1+2.
func (r *Result) cloneShallow(u *xqparse.UpdateQuery) *Result {
	cp := *r
	cp.Update = u
	if len(r.Conditions) > 0 {
		cp.Conditions = append([]Condition(nil), r.Conditions...)
	}
	return &cp
}
