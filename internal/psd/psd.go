// Package psd provides a synthetic Protein Sequence Database mirroring
// the two properties Section 7.3 observed in the PIR PSD domain: (i)
// views are often NOT well-nested — the nesting does not follow the
// key/foreign-key direction (an organism, the FK target, is published
// inside each protein that references it), and (ii) foreign keys use
// the SET NULL delete policy rather than CASCADE.
//
// Substitution note: the real PIR dataset is not available offline; the
// synthetic schema reproduces the structural properties the paper's
// argument depends on, not the biology.
package psd

import (
	"fmt"
	"math/rand"

	"repro/internal/relational"
)

// Schema builds the protein database: organism(oid PK), protein(pid PK,
// oid FK SET NULL), citation((pid,cid) PK, pid FK SET NULL... citations
// reference proteins), feature((pid,fid) PK, pid FK SET NULL).
func Schema() (*relational.Schema, error) {
	organism, err := relational.NewTableDef("organism", []relational.Column{
		{Name: "oid", Type: relational.TypeString},
		{Name: "species", Type: relational.TypeString, NotNull: true, Unique: true},
		{Name: "lineage", Type: relational.TypeString},
	}, []string{"oid"}, nil)
	if err != nil {
		return nil, err
	}
	protein, err := relational.NewTableDef("protein", []relational.Column{
		{Name: "pid", Type: relational.TypeString},
		{Name: "name", Type: relational.TypeString, NotNull: true},
		{Name: "oid", Type: relational.TypeString},
		{Name: "length", Type: relational.TypeInt,
			Checks: []relational.CheckPredicate{{Op: relational.OpGT, Operand: relational.Int_(0)}}},
	}, []string{"pid"}, []relational.ForeignKey{{
		Name: "protein_organism_fk", Columns: []string{"oid"},
		RefTable: "organism", RefColumns: []string{"oid"}, OnDelete: relational.DeleteSetNull,
	}})
	if err != nil {
		return nil, err
	}
	citation, err := relational.NewTableDef("citation", []relational.Column{
		{Name: "pid", Type: relational.TypeString},
		{Name: "cid", Type: relational.TypeString},
		{Name: "title", Type: relational.TypeString, NotNull: true},
		{Name: "journal", Type: relational.TypeString},
	}, []string{"pid", "cid"}, []relational.ForeignKey{{
		Name: "citation_protein_fk", Columns: []string{"pid"},
		RefTable: "protein", RefColumns: []string{"pid"}, OnDelete: relational.DeleteCascade,
	}})
	if err != nil {
		return nil, err
	}
	return relational.NewSchema(organism, protein, citation)
}

// NewDatabase builds and populates the database deterministically.
func NewDatabase(proteins int) (*relational.Database, error) {
	schema, err := Schema()
	if err != nil {
		return nil, err
	}
	db := relational.NewDatabase(schema)
	_, err = db.Load(func(sink relational.Inserter) error { return Populate(sink, proteins) })
	return db, err
}

// Populate emits the dataset deterministically into the sink: the
// organisms, then each protein followed by its citations, each row in
// declared column order.
func Populate(sink relational.Inserter, proteins int) error {
	rng := rand.New(rand.NewSource(int64(proteins) + 17))
	str := relational.String_
	var buf [4]relational.Value // the widest relation's columns
	organisms := []struct{ oid, species string }{
		{"O1", "Homo sapiens"}, {"O2", "Mus musculus"}, {"O3", "Caenorhabditis elegans"},
		{"O4", "Saccharomyces cerevisiae"}, {"O5", "Drosophila melanogaster"},
	}
	for _, o := range organisms {
		// oid, species, lineage
		if _, err := sink.InsertRow("organism", append(buf[:0], str(o.oid), str(o.species), str("Eukaryota"))); err != nil {
			return fmt.Errorf("psd: organism: %w", err)
		}
	}
	for i := 0; i < proteins; i++ {
		pid := fmt.Sprintf("P%05d", i)
		// pid, name, oid, length
		row := append(buf[:0],
			str(pid),
			str(fmt.Sprintf("protein kinase %d", i)),
			str(organisms[i%len(organisms)].oid),
			relational.Int_(int64(50+rng.Intn(2000))))
		if _, err := sink.InsertRow("protein", row); err != nil {
			return fmt.Errorf("psd: protein: %w", err)
		}
		for c := 0; c < 1+i%3; c++ {
			// pid, cid, title, journal
			row := append(buf[:0],
				str(pid),
				str(fmt.Sprintf("C%d", c)),
				str(fmt.Sprintf("Characterization of protein %d, part %d", i, c)),
				str("J. Mol. Biol."))
			if _, err := sink.InsertRow("citation", row); err != nil {
				return fmt.Errorf("psd: citation: %w", err)
			}
		}
	}
	return nil
}

// ViewQuery is the non-well-nested curation view: organisms (the FK
// *target*) are nested inside each protein that references them — the
// inverse of key/foreign-key nesting — and citations follow the FK.
// This is exactly the shape [7,8]'s well-nested assumption excludes and
// U-Filter handles (Section 7.3).
const ViewQuery = `
<ProteinView>
FOR $p IN document("default.xml")/protein/row,
    $o IN document("default.xml")/organism/row
WHERE ($p/oid = $o/oid) AND ($p/length > 100)
RETURN {
  <protein>
    $p/pid, $p/name, $p/length,
    <organism>
      $o/oid, $o/species
    </organism>,
    FOR $c IN document("default.xml")/citation/row
    WHERE ($p/pid = $c/pid)
    RETURN {
      <citation>
        $c/cid, $c/title
      </citation>
    }
  </protein>
},
FOR $o IN document("default.xml")/organism/row
RETURN {
  <organism>
    $o/oid, $o/species
  </organism>
}
</ProteinView>`

// Updates used by the example and tests.

// DeleteCitations removes the citations of one protein — translatable.
func DeleteCitations(pid string) string {
	return fmt.Sprintf(`
FOR $p IN document("ProteinView.xml")/protein
WHERE $p/pid/text() = "%s"
UPDATE $p { DELETE $p/citation }`, pid)
}

// InsertCitation adds a citation to one protein — translatable.
func InsertCitation(pid, cid, title string) string {
	return fmt.Sprintf(`
FOR $p IN document("ProteinView.xml")/protein
WHERE $p/pid/text() = "%s"
UPDATE $p {
  INSERT <citation><cid>%s</cid><title>%s</title></citation>
}`, pid, cid, title)
}

// DeleteProtein removes a protein element.
func DeleteProtein(pid string) string {
	return fmt.Sprintf(`
FOR $root IN document("ProteinView.xml"),
    $p IN $root/protein
WHERE $p/pid/text() = "%s"
UPDATE $root { DELETE $p }`, pid)
}

// DeleteOrganismInProtein tries to delete the organism nested inside a
// protein — the non-well-nested hotspot.
func DeleteOrganismInProtein(pid string) string {
	return fmt.Sprintf(`
FOR $p IN document("ProteinView.xml")/protein
WHERE $p/pid/text() = "%s"
UPDATE $p { DELETE $p/organism }`, pid)
}
