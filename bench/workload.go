package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"

	"repro/internal/bookdb"
	"repro/internal/psd"
	"repro/internal/server"
	"repro/internal/tpch"
)

// nClients is the closed-loop client count: the box has two cores and a
// gateway caller waits for its verdict before sending the next update.
const nClients = 2

// Request classes: the three latency families the end-to-end metrics
// report.
const (
	clsCheck uint8 = iota // /check and /check-batch
	clsApply              // single /apply
	clsBatch              // /apply-batch
	nClasses
)

var classNames = [nClasses]string{"check", "apply", "batch"}

// reqKind is one slot of a workload's request schedule.
type reqKind uint8

const (
	rqCorpus reqKind = iota // /check rotating over the four views' corpus
	rqHot                   // /check on tpch: hot template, fresh literal
	rqData                  // /check-batch, "data": true, four updates
	rqApply                 // single /apply (kind from the apply schedule)
	rqBatch                 // /apply-batch of two updates
)

// applyKind is one slot of a workload's apply schedule.
type applyKind uint8

const (
	apInsert     applyKind = iota // insert a fresh lineitem
	apDelete                      // delete the lineitem inserted deleteLag applies ago
	apDup                         // re-insert a live key: rejected at the data step
	apWipeInsert                  // insert into a reserved order, to be wiped
	apWipe                        // delete-lineitems-of-order on that reserved order
)

const (
	deleteLag = 256 // applies between an insert and its delete, per client
	batchLag  = 16  // batches between an insert batch and its delete batch
	wipeLag   = 8   // wipe-inserts between a reserved order's insert and its wipe
	wipeEvery = 32  // one in wipeEvery of a client's orders is reserved for wipes
)

// workload is one traffic mix against one daemon configuration.
type workload struct {
	Name string
	Why  string
	// Daemon configuration.
	Durable        bool
	Shards         int
	PageCacheBytes int64 // 0 = engine default
	Views          []server.ViewConfig
	TPCHMB         int // nominal size of the "tpch" view
	// Per-client schedules, repeated.
	Cycle   []reqKind
	Applies []applyKind
	// MinCacheRatio fails the run when pages_total*4096 / cache budget
	// is below it (the larger-than-cache workload must be larger).
	MinCacheRatio float64
	// RSSAtOps is the answered-request count of the window up to which
	// the child's peak RSS is read, at rssReads evenly spaced counts: the
	// daemon retains memory per request served (a plan per fresh INSERT,
	// until a cache tier fills and is dropped), so RSS after a fixed time
	// would measure the machine's speed. About 40 % of a 20 s window.
	RSSAtOps int64
}

const (
	A = rqApply
	B = rqBatch
	C = rqCorpus
	H = rqHot
	D = rqData
)

var pairApplies = []applyKind{apInsert, apDelete}

var workloads = []*workload{
	{
		Name: "mixed-mem",
		Why:  "CPU-only control: in-memory daemon, cached checks over four views with >=40% rejects, applies with no log; storage changes must not move it",
		Views: []server.ViewConfig{
			{Name: "book", Dataset: "book"},
			{Name: "psd", Dataset: "psd"},
			{Name: "tpch", Dataset: "tpch", MB: 20},
			{Name: "tpch-vfail-orders", Dataset: "tpch", TPCHView: "vfail:orders", MB: 1},
		},
		TPCHMB:   20,
		Cycle:    []reqKind{C, C, C, A, C, C, C, C, B, C, C, A, C, C, C, C},
		Applies:  pairApplies,
		RSSAtOps: 40000,
	},
	{
		Name:    "apply-durable",
		Why:     "write path: one WAL, dataset fits the page cache; txn, commit pipeline, fsync and checkpointer do the work",
		Durable: true,
		Views:   []server.ViewConfig{{Name: "tpch", Dataset: "tpch", MB: 100}},
		TPCHMB:  100,
		Cycle:   []reqKind{A, A, A, A, H, A, A, A, A, B, A, A, A, A, H, A, A, A, A, B},
		Applies: []applyKind{
			apInsert, apDelete, apInsert, apDelete, apDup, apInsert, apDelete, apInsert, apDelete, apWipeInsert,
			apInsert, apDelete, apInsert, apDelete, apDup, apInsert, apDelete, apInsert, apDelete, apWipe,
		},
		RSSAtOps: 16000,
	},
	{
		Name:           "read-paged",
		Why:            "larger than cache: 256 KiB pool under a ~5 MB page image; snapshot data checks fault cold pages while applies keep checkpoints demoting rows",
		Durable:        true,
		PageCacheBytes: 262144,
		Views:          []server.ViewConfig{{Name: "tpch", Dataset: "tpch", MB: 300}},
		TPCHMB:         300,
		Cycle:          []reqKind{D, D, A, D, D, B, D, A, D, D},
		Applies:        pairApplies,
		MinCacheRatio:  5,
		RSSAtOps:       14000,
	},
	{
		Name:     "apply-sharded",
		Why:      "4 shards: half single-shard applies, half cross-shard 2PC batches; routing, per-shard WALs and the coordinator log do the distinguishing work",
		Durable:  true,
		Shards:   4,
		Views:    []server.ViewConfig{{Name: "tpch", Dataset: "tpch", MB: 100}},
		TPCHMB:   100,
		Cycle:    []reqKind{A, B, A, B, A, B, A, B, A, H, B, A, B, A, B, A, B, A, B, H},
		Applies:  pairApplies,
		RSSAtOps: 10000,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// config renders the daemon's -config file for the workload.
func (w *workload) config() server.Config {
	return server.Config{Views: w.Views}
}

// usesWipes reports whether the apply schedule wipes reserved orders.
func (w *workload) usesWipes() bool {
	for _, k := range w.Applies {
		if k == apWipe {
			return true
		}
	}
	return false
}

// verdict is what the generator expects the daemon to answer for one
// update.
type verdict struct {
	Accepted   bool
	RejectedAt string // "none", "validation", "star" or "data"
}

var (
	vAccept     = verdict{true, "none"}
	vInvalid    = verdict{false, "validation"}
	vStar       = verdict{false, "star"}
	vDataReject = verdict{false, "data"}
)

// key names one lineitem.
type key struct{ Order, Line int64 }

// opKind says what one update does, for the layers below the wire
// format: the drive pass replays the same update through each layer's
// public functions and needs to know which ones.
type opKind uint8

const (
	opCheck  opKind = iota // schema-level check, or a data check when the request says so
	opInsert               // insert lineitem Key
	opDelete               // delete lineitem Key
	opDup                  // insert a live Key again (rejected at the data step)
	opWipe                 // delete every lineitem of order Key.Order
)

// update is one view update with the verdict the generator expects.
type update struct {
	text   string
	expect verdict
	op     opKind
	// key is the lineitem the update names (for a wipe, the one lineitem
	// of the order that the generator tracks); zero for corpus checks on
	// other views.
	key key
	// template names a plan the drive pass may compile once and bind
	// many times; empty when the literal content is part of the
	// template (inserts), so every instance compiles.
	template string
}

// request is one generated HTTP request.
type request struct {
	class   uint8
	view    string
	updates []update
	batched bool // /check-batch or /apply-batch rather than the single form
	data    bool // /check-batch with "data": true
}

func (r *request) path() string {
	op := "check"
	if r.class != clsCheck {
		op = "apply"
	}
	if r.batched {
		op += "-batch"
	}
	return "/views/" + r.view + "/" + op
}

// body renders the JSON the daemon receives. Data checks run on one
// worker so a request costs one core, like every other request.
func (r *request) body() []byte {
	var b []byte
	if !r.batched {
		b, _ = json.Marshal(struct {
			Update string `json:"update"`
		}{r.updates[0].text}) // a struct of strings cannot fail to marshal
		return b
	}
	texts := make([]string, len(r.updates))
	for i, u := range r.updates {
		texts[i] = u.text
	}
	workers := 0
	if r.data {
		workers = 1
	}
	b, _ = json.Marshal(struct {
		Updates []string `json:"updates"`
		Workers int      `json:"workers,omitempty"`
		Data    bool     `json:"data,omitempty"`
	}{texts, workers, r.data}) // strings and scalars cannot fail to marshal
	return b
}

// touched lists the lineitems the request inserts or deletes when the
// daemon answers as expected.
func (r *request) touched() []key {
	var out []key
	for _, u := range r.updates {
		if u.op == opInsert || u.op == opDelete || u.op == opWipe {
			out = append(out, u.key)
		}
	}
	return out
}

// generator produces one client's request stream. The stream depends
// only on (workload, seed, client, clients, placement): each client
// owns a disjoint set of orders and line numbers, so every expected
// verdict holds whatever the interleaving with the other client.
type generator struct {
	w       *workload
	rng     *rand.Rand
	client  int64
	clients int64
	orders  int64 // tpch orders in the "tpch" view
	// regionShard maps a region key to its shard; nil when unsharded.
	regionShard []int

	reqN, applyN, batchN, corpusN, hotN int
	lineN                               int64 // fresh line numbers handed out
	wipeN                               int64

	pendA     []key    // inserted by single applies, not yet deleted
	pendBatch [][2]key // inserted by batches, not yet deleted
	pendWipe  []key    // inserted into reserved orders, not yet wiped
	// recentDeleted holds the latest deletes sent, for the restart check.
	recentDeleted []key
}

func newGenerator(w *workload, seed int64, client, clients int, regionShard []int) *generator {
	h := fnv.New64a()
	h.Write([]byte(w.Name))
	src := seed*1000003 + int64(client)*7919 + int64(h.Sum64()%1000003)
	return &generator{
		w:           w,
		rng:         rand.New(rand.NewSource(src)),
		client:      int64(client),
		clients:     int64(clients),
		orders:      int64(tpch.RowsForMB(w.TPCHMB).Orders),
		regionShard: regionShard,
	}
}

// ownOrder picks one of this client's orders uniformly, skipping the
// orders reserved for wipes when the workload wipes.
func (g *generator) ownOrder() int64 {
	n := g.orders / g.clients
	idx := g.rng.Int63n(n)
	if g.w.usesWipes() && idx%wipeEvery == 0 {
		idx++ // never a multiple of wipeEvery; n is far above wipeEvery
	}
	return idx*g.clients + g.client
}

// anyOrder picks uniformly over all orders that no apply ever empties.
func (g *generator) anyOrder() int64 {
	o := g.rng.Int63n(g.orders)
	if g.w.usesWipes() && (o/g.clients)%wipeEvery == 0 {
		o += g.clients
		if o >= g.orders {
			o -= 2 * g.clients
		}
	}
	return o
}

// freshLine hands out a line number no other request ever uses.
func (g *generator) freshLine() int64 {
	ln := g.lineAt(g.lineN)
	g.lineN++
	return ln
}

func (g *generator) lineAt(n int64) int64 { return 1000 + n*g.clients + g.client }

// regionOfOrder follows the FK chain order -> customer -> nation ->
// region the way tpch.Generate lays it out.
func regionOfOrder(o int64, customers int64) int64 {
	return ((o % customers) % 25) % 5
}

func (g *generator) shardOfOrder(o int64) int {
	if g.regionShard == nil {
		return 0
	}
	return g.regionShard[regionOfOrder(o, int64(tpch.RowsForMB(g.w.TPCHMB).Customers))]
}

// otherShardOrder picks one of this client's orders that lives on a
// different shard than o; unsharded, any own order.
func (g *generator) otherShardOrder(o int64) int64 {
	p := g.ownOrder()
	for i := 0; i < 5 && g.regionShard != nil && g.shardOfOrder(p) == g.shardOfOrder(o); i++ {
		p += g.clients // steps the region residue; stays this client's
		if p >= g.orders {
			p -= 5 * g.clients
		}
	}
	return p
}

func deleteLineitem(k key) string {
	return fmt.Sprintf(`
FOR $t IN document("view.xml")/region/nation/customer/order/lineitem
WHERE $t/l_orderkey/text() = "%d" AND $t/l_linenumber/text() = "%d"
UPDATE $t { DELETE $t }`, k.Order, k.Line)
}

// invalidInsert inserts a lineitem with quantity 0: the CHECK on
// l_quantity rejects it at Step 1.
func invalidInsert(k key) string {
	return fmt.Sprintf(`
FOR $o IN document("view.xml")/region/nation/customer/order
WHERE $o/o_orderkey/text() = "%d"
UPDATE $o {
  INSERT
    <lineitem>
      <l_orderkey>%d</l_orderkey>
      <l_linenumber>%d</l_linenumber>
      <l_quantity>0</l_quantity>
    </lineitem>
}`, k.Order, k.Order, k.Line)
}

// badLiteralDelete compares an integer key with a non-integer literal:
// a hot template whose bound literal fails Step 1.
func badLiteralDelete(n int64) string {
	return fmt.Sprintf(`
FOR $o IN document("view.xml")/region/nation/customer/order
WHERE $o/o_orderkey/text() = "k%d"
UPDATE $o { DELETE $o/lineitem }`, n)
}

func insertOf(k key) update {
	return update{text: tpch.InsertLineitemUpdate(k.Order, k.Line), expect: vAccept, op: opInsert, key: k}
}

func deleteOf(k key) update {
	return update{text: deleteLineitem(k), expect: vAccept, op: opDelete, key: k, template: "delete-lineitem"}
}

// wipeOf deletes every lineitem of k's order. k.Line is the lineitem the
// generator put there for the wipe to remove (0 when the wipe is only
// checked): the restart check asks for that one by name.
func wipeOf(k key) update {
	return update{text: tpch.DeleteLineitemsOfOrder(k.Order), expect: vAccept, op: opWipe, key: k, template: "wipe-order"}
}

// next generates the client's next request.
func (g *generator) next() request {
	kind := g.w.Cycle[g.reqN%len(g.w.Cycle)]
	g.reqN++
	switch kind {
	case rqCorpus:
		return g.corpusCheck()
	case rqHot:
		return g.hotCheck()
	case rqData:
		return g.dataCheck()
	case rqBatch:
		return g.batch()
	default:
		return request{class: clsApply, view: "tpch", updates: []update{g.apply()}}
	}
}

func (g *generator) apply() update {
	kind := g.w.Applies[g.applyN%len(g.w.Applies)]
	g.applyN++
	switch kind {
	case apDelete:
		if len(g.pendA) < deleteLag {
			break // still filling the lag: insert instead
		}
		k := g.pendA[0]
		g.pendA = g.pendA[1:]
		g.noteDeleted(k)
		return deleteOf(k)
	case apDup:
		if len(g.pendA) == 0 {
			break
		}
		u := insertOf(g.pendA[g.rng.Intn(len(g.pendA))])
		u.expect, u.op = vDataReject, opDup
		return u
	case apWipeInsert:
		k := key{g.wipeOrder(g.wipeN), g.freshLine()}
		g.wipeN++
		g.pendWipe = append(g.pendWipe, k)
		return insertOf(k)
	case apWipe:
		if len(g.pendWipe) < wipeLag {
			break
		}
		k := g.pendWipe[0]
		g.pendWipe = g.pendWipe[1:]
		g.noteDeleted(k)
		return wipeOf(k)
	}
	k := key{g.ownOrder(), g.freshLine()}
	g.pendA = append(g.pendA, k)
	return insertOf(k)
}

// wipeOrder returns the i-th reserved order of this client, cycling.
func (g *generator) wipeOrder(i int64) int64 {
	pool := (g.orders/g.clients + wipeEvery - 1) / wipeEvery
	return (i%pool)*wipeEvery*g.clients + g.client
}

func (g *generator) noteDeleted(k key) {
	g.recentDeleted = append(g.recentDeleted, k)
	if len(g.recentDeleted) > 64 {
		g.recentDeleted = g.recentDeleted[1:]
	}
}

// batch alternates two-insert and two-delete batches. Sharded, the two
// orders sit on different shards, so each batch is one cross-shard
// transaction.
func (g *generator) batch() request {
	g.batchN++
	req := request{class: clsBatch, view: "tpch", batched: true}
	if g.batchN%2 == 0 && len(g.pendBatch) >= batchLag {
		p := g.pendBatch[0]
		g.pendBatch = g.pendBatch[1:]
		g.noteDeleted(p[0])
		g.noteDeleted(p[1])
		req.updates = []update{deleteOf(p[0]), deleteOf(p[1])}
		return req
	}
	o := g.ownOrder()
	p := [2]key{{o, g.freshLine()}, {g.otherShardOrder(o), g.freshLine()}}
	g.pendBatch = append(g.pendBatch, p)
	req.updates = []update{insertOf(p[0]), insertOf(p[1])}
	return req
}

// hotCheck is a schema-level /check on tpch: a hot template with a
// fresh literal, alternately accepted and rejected at Step 1.
func (g *generator) hotCheck() request {
	g.hotN++
	if g.hotN%2 == 0 {
		return checkReq("tpch", badLiteralDelete(g.rng.Int63n(g.orders)), vInvalid)
	}
	u := wipeOf(key{Order: g.anyOrder()})
	u.op = opCheck
	return request{class: clsCheck, view: "tpch", updates: []update{u}}
}

func checkReq(view, text string, want verdict) request {
	return request{class: clsCheck, view: view, updates: []update{{text: text, expect: want, op: opCheck}}}
}

// dataCheck is a /check-batch with "data": true over four updates with
// keys uniform over all orders: Step 3 probes run against one pinned
// snapshot and fault whatever pages those keys live on.
func (g *generator) dataCheck() request {
	missing := deleteOf(key{g.anyOrder(), 999})
	missing.expect = vDataReject
	ups := []update{
		insertOf(key{g.anyOrder(), g.freshLine()}),
		wipeOf(key{Order: g.anyOrder()}),
		deleteOf(key{g.anyOrder(), 1 + g.rng.Int63n(3)}),
		missing,
	}
	for i := range ups {
		ups[i].op = opCheck
	}
	return request{class: clsCheck, view: "tpch", updates: ups, batched: true, data: true}
}

// corpusEntry is one check of the mixed-mem corpus: a fixed text, or a
// hot template that takes a fresh literal.
type corpusEntry struct {
	view   string
	text   string                    // fixed text when fresh is nil
	fresh  func(g *generator) string // template with a fresh literal
	expect verdict
}

// bookVerdicts are the paper's Step 1+2 outcomes for u1..u13.
var bookVerdicts = map[string]verdict{
	"u1": vInvalid, "u2": vStar, "u3": vAccept, "u4": vAccept, "u5": vInvalid,
	"u6": vInvalid, "u7": vInvalid, "u8": vAccept, "u9": vAccept, "u10": vStar,
	"u11": vAccept, "u12": vAccept, "u13": vAccept,
}

const vfail = "tpch-vfail-orders"

// repeatedCorpus are byte-identical resubmissions (text-tier hits);
// freshCorpus are hot templates with fresh literals (template tier).
// Both are at least 40% untranslatable by construction; a unit test
// counts.
var repeatedCorpus, freshCorpus = buildCorpus()

func buildCorpus() (repeated, fresh []corpusEntry) {
	for _, u := range bookdb.AllUpdates() {
		repeated = append(repeated, corpusEntry{view: "book", text: u.Text, expect: bookVerdicts[u.Name]})
	}
	repeated = append(repeated,
		corpusEntry{view: "psd", text: psd.DeleteCitations("P00007"), expect: vAccept},
		corpusEntry{view: "psd", text: psd.DeleteOrganismInProtein("P00007"), expect: vStar},
		corpusEntry{view: "psd", text: psd.DeleteProtein("P00011"), expect: vAccept},
		corpusEntry{view: "psd", text: psd.DeleteOrganismInProtein("P00023"), expect: vStar},
		corpusEntry{view: "tpch", text: tpch.DeleteLineitemsOfOrder(5), expect: vAccept},
		corpusEntry{view: "tpch", text: invalidInsert(key{5, 1}), expect: vInvalid},
		corpusEntry{view: "tpch", text: tpch.DeleteElementUpdate("lineitem", 9), expect: vAccept},
		corpusEntry{view: vfail, text: tpch.DeleteElementUpdate("orders", 17), expect: vStar},
		corpusEntry{view: vfail, text: tpch.DeleteElementUpdate("customer", 3), expect: vStar},
		corpusEntry{view: vfail, text: tpch.DeleteElementUpdate("lineitem", 17), expect: vAccept},
	)
	n := func(g *generator) int64 { return g.rng.Int63n(1 << 20) }
	fresh = []corpusEntry{
		{view: "book", expect: vAccept, fresh: func(g *generator) string {
			return fmt.Sprintf(`
FOR $book IN document("BookView.xml")/book
WHERE $book/title/text() = "Title %d"
UPDATE $book { DELETE $book/review }`, n(g))
		}},
		{view: "book", expect: vStar, fresh: func(g *generator) string {
			return fmt.Sprintf(`
FOR $book IN document("BookView.xml")/book
WHERE $book/price > 4%d.%02d
UPDATE $book { DELETE $book/publisher }`, n(g)%10, n(g)%100)
		}},
		{view: "book", expect: vStar, fresh: func(g *generator) string {
			return fmt.Sprintf(`
FOR $root IN document("BookView.xml"),
    $book IN $root/book
WHERE $book/bookid/text() = "%d"
UPDATE $root { DELETE $book/publisher }`, n(g))
		}},
		{view: "psd", expect: vAccept, fresh: func(g *generator) string {
			return psd.DeleteCitations(fmt.Sprintf("P%05d", n(g)%100000))
		}},
		{view: "psd", expect: vStar, fresh: func(g *generator) string {
			return psd.DeleteOrganismInProtein(fmt.Sprintf("P%05d", n(g)%100000))
		}},
		{view: "tpch", expect: vAccept, fresh: func(g *generator) string {
			return tpch.DeleteLineitemsOfOrder(n(g))
		}},
		{view: "tpch", expect: vAccept, fresh: func(g *generator) string {
			return tpch.InsertLineitemUpdate(n(g), n(g))
		}},
		{view: "tpch", expect: vInvalid, fresh: func(g *generator) string {
			return badLiteralDelete(n(g))
		}},
		{view: vfail, expect: vStar, fresh: func(g *generator) string {
			return tpch.DeleteElementUpdate("orders", n(g))
		}},
		{view: vfail, expect: vStar, fresh: func(g *generator) string {
			return tpch.DeleteElementUpdate("customer", n(g))
		}},
		{view: vfail, expect: vAccept, fresh: func(g *generator) string {
			return tpch.DeleteElementUpdate("lineitem", n(g))
		}},
	}
	return repeated, fresh
}

// corpusCheck alternates a repeated text and a hot template.
func (g *generator) corpusCheck() request {
	g.corpusN++
	if g.corpusN%2 == 0 {
		e := repeatedCorpus[g.rng.Intn(len(repeatedCorpus))]
		return checkReq(e.view, e.text, e.expect)
	}
	e := freshCorpus[g.rng.Intn(len(freshCorpus))]
	return checkReq(e.view, e.fresh(g), e.expect)
}

// liveKeys lists every lineitem the client has inserted and not yet
// deleted, as its bookkeeping stands.
func (g *generator) liveKeys() []key {
	out := append([]key(nil), g.pendA...)
	for _, p := range g.pendBatch {
		out = append(out, p[0], p[1])
	}
	return append(out, g.pendWipe...)
}
