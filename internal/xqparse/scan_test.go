package xqparse

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/bookdb"
	"repro/internal/relational"
	"repro/internal/tpch"
	"repro/internal/xmltree"
)

// checkScan scans text and, when the scanner accepts it, requires
// ParseUpdate to succeed with the same key, literals and leaf texts. It
// reports whether the scanner accepted.
func checkScan(t testing.TB, text string) bool {
	t.Helper()
	var s Scanned
	if !ScanUpdate(text, &s) {
		return false
	}
	u, err := ParseUpdate(text)
	if err != nil {
		t.Fatalf("scanner accepted %q, ParseUpdate failed: %v", text, err)
	}
	if key := u.AppendKey(nil); !bytes.Equal(key, s.Key) {
		t.Fatalf("key of %q:\nscan:  %q\nparse: %q", text, s.Key, key)
	}
	var lits []relational.Value
	for _, p := range u.Preds {
		for _, o := range [2]PredOperand{p.Left, p.Right} {
			if o.IsLiteral {
				lits = append(lits, o.Lit)
			}
		}
	}
	if len(lits) != len(s.Lits) || len(lits) > 0 && !reflect.DeepEqual(lits, s.Lits) {
		t.Fatalf("literals of %q: scan %#v, parse %#v", text, s.Lits, lits)
	}
	var texts []string
	var leaves func(n *xmltree.Node)
	leaves = func(n *xmltree.Node) {
		if len(n.ElementChildren()) == 0 {
			texts = append(texts, n.TextContent())
		}
		for _, c := range n.ElementChildren() {
			leaves(c)
		}
	}
	for _, op := range u.Ops {
		if op.Content != nil {
			leaves(op.Content)
		}
	}
	if len(texts) != len(s.Texts) || len(texts) > 0 && !reflect.DeepEqual(texts, s.Texts) {
		t.Fatalf("leaf texts of %q: scan %q, parse %q", text, s.Texts, texts)
	}
	return true
}

// FuzzScanMatchesParse: whatever ScanUpdate accepts, ParseUpdate parses
// into the same template key, literals (kind and value) and leaf texts.
// The committed corpus adds the psd updates and a sample of the verdict
// oracle's generated ones.
func FuzzScanMatchesParse(f *testing.F) {
	for _, u := range bookdb.AllUpdates() {
		f.Add(u.Text)
	}
	for _, text := range []string{
		tpch.InsertLineitemUpdate(5, 900),
		tpch.InsertOrderlineUpdateBush(3, 7, 1),
		tpch.DeleteLineitemsOfOrder(12),
		tpch.DeleteElementUpdate("customer", 4),
		// The escape cases of the wire decoder's fuzz corpus, decoded.
		"\"\\/\b\f\n\r\t",
		"<lineitem>7</lineitem>",
		"\xed\xa0\x80\U0001F600",
		"a\xff\xfe\xed\xa0\x80b",
		`FOR $x IN document("v")/a WHERE $x/b/text() = "\u00e9" UPDATE $x { DELETE $x }`,
		"FOR $x IN document(\"v\")/a UPDATE $x { INSERT <b>x\r\ny</b> }",
	} {
		f.Add(text)
	}
	f.Fuzz(func(t *testing.T, text string) { checkScan(t, text) })
}

// TestScanAgreesWithParse pins what the scanner accepts and declines;
// every accepted text must match the parse.
func TestScanAgreesWithParse(t *testing.T) {
	for _, tc := range []struct {
		text   string
		accept bool
	}{
		{`for $b in document("BookView.xml")/book where ($b/price/TEXT() <> -4) and $b/title != 'x' update $b { delete $b/review/text() }`, true},
		{`FOR $r = document(""), $b IN $r/book WHERE "a" < $b/t AND 1.5 >= $b/p AND $b/q <= 99999999999999999999 UPDATE $r { DELETE $b, }`, true},
		{`FOR $b IN document("v")/book UPDATE $b { REPLACE $b/title WITH <title> "New" </title>, INSERT <review>lead<reviewid>''</reviewid>mid<comment/ ></review> }`, false},
		{`FOR $b IN document("v")/book UPDATE $b { INSERT <review>lead<reviewid>''</reviewid> > mid <comment></comment></review> }`, true},
		{`FOR $b IN document('a"b')/book UPDATE $b { DELETE $b }`, true},
		{"FOR $b IN document(\"v\")/book WHERE $b/t = “x” UPDATE $b { DELETE $b }", false},
		{`FOR $b IN document("v")/book UPDATE $b { INSERT <review><c>a &amp; b</c></review> }`, true},
		{`FOR $b IN document("v")/book UPDATE $b { INSERT <review>&lt;<c>&quot;a&quot;&apos;&gt;</c></review> }`, true},
		{`FOR $b IN document("v")/book UPDATE $b { INSERT <review><c>a &#38; b</c></review> }`, false},
		{`FOR $b IN document("v")/book UPDATE $b { INSERT <review><c>a &bogus; b</c></review> }`, false},
		{`FOR $b IN document("v")/book UPDATE $b { INSERT <review id="1"><c>a</c></review> }`, false},
		{`FOR $b IN document("v")/book UPDATE $b { INSERT <p:review><c>a</c></p:review> }`, false},
		{`FOR $b IN document("v")/book UPDATE $b { INSERT <review><c/></review> }`, false},
		{`FOR $b IN document("v")/book UPDATE $b { INSERT <review><!-- x --><c>a</c></review> }`, false},
		{`FOR $b IN document("v")/book UPDATE $b { INSERT <review><c><![CDATA[a]]></c></review> }`, false},
		{`FOR $b IN document("v")/book UPDATE $b { INSERT <review><c>a ]]> b</c></review> }`, false},
		{"FOR $b IN document(\"v\")/book UPDATE $b { INSERT <review><c>a\rb</c></review> }", false},
		{"FOR $b IN document(\"v\")/book UPDATE $b { INSERT <review><c>a\x01b</c></review> }", false},
		{`FOR $b IN document("v")/book UPDATE $b { INSERT <review><c>a</d></review> }`, false},
		{`FOR $b IN document("v")/book UPDATE $b { }`, false},
		{`FOR $b IN document("v")/book UPDATE $b { DELETE $b } trailing`, false},
		{`FOR $b IN document("v")/book UPDATE $b { DELETE $b/text }`, false},
	} {
		if got := checkScan(t, tc.text); got != tc.accept {
			t.Errorf("ScanUpdate(%q) = %v, want %v", tc.text, got, tc.accept)
		}
	}
}

// TestDocumentSourceKey: document("") is a document source, in the
// parser's rendering and in both key writers.
func TestDocumentSourceKey(t *testing.T) {
	text := `FOR $r IN document("") UPDATE $r { DELETE $r/book }`
	u, err := ParseUpdate(text)
	if err != nil {
		t.Fatal(err)
	}
	if got := u.Bindings[0].Source.String(); got != `document("")` {
		t.Errorf("Source.String() = %s, want document(\"\")", got)
	}
	if !checkScan(t, text) {
		t.Fatal("scanner declined a plain text")
	}
	if key := string(u.AppendKey(nil)); key != "b:$r=document(\"\")\nt:$r\no:DELETE $r/book\n" {
		t.Errorf("key = %q", key)
	}
}

// TestScanUpdateAllocs: once its buffers have grown, a scan allocates
// nothing. ParseUpdate plus the key took 71 allocations on the insert.
func TestScanUpdateAllocs(t *testing.T) {
	var s Scanned
	for _, text := range []string{tpch.InsertLineitemUpdate(5, 900), tpch.DeleteLineitemsOfOrder(12)} {
		scan := func() {
			if !ScanUpdate(text, &s) {
				t.Fatalf("declined %q", text)
			}
		}
		scan()
		if n := testing.AllocsPerRun(100, scan); n != 0 {
			t.Errorf("ScanUpdate allocates %.0f times on %q, want 0", n, text)
		}
	}
}

// TestPlainReadsWords: plain, eight bytes at a time, gives plainBytes'
// verdict with any byte at any position of a word or of the tail.
func TestPlainReadsWords(t *testing.T) {
	base := []byte("FOR $b IN x/y { a }") // two words and a tail
	for pos := range base {
		for c := 0; c < 256; c++ {
			s := append([]byte(nil), base...)
			s[pos] = byte(c)
			if got, want := plain(string(s)), plainBytes(string(s)); got != want {
				t.Fatalf("plain(%q) = %v, want %v", s, got, want)
			}
		}
	}
}

// BenchmarkScanUpdate measures ScanUpdate's throughput (MB/s) on the
// BookView template a cached check scans and on the tpch lineitem
// insert, the shape of the paged benchmark's updates.
func BenchmarkScanUpdate(b *testing.B) {
	for _, bc := range []struct{ name, text string }{
		{"bookview", `
FOR $book IN document("BookView.xml")/book
WHERE $book/title/text() = "Title 17"
UPDATE $book { DELETE $book/review }`},
		{"tpch-insert", tpch.InsertLineitemUpdate(123456, 7)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var s Scanned
			b.SetBytes(int64(len(bc.text)))
			for i := 0; i < b.N; i++ {
				if !ScanUpdate(bc.text, &s) {
					b.Fatalf("declined %q", bc.text)
				}
			}
		})
	}
}
