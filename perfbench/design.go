package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/bookshelf"
	"repro/internal/db"
	"repro/internal/eco"
	"repro/internal/gen"
)

// sbA is the suite's sb-a configuration (generator seed 101).
func sbA() gen.Config {
	for _, c := range gen.Suite() {
		if c.Name == "sb-a" {
			return c
		}
	}
	panic("gen.Suite has no sb-a")
}

// workloadDesign generates the workload's netlist and renames its cells
// and nets from the run seed. The netlist itself stays fixed: the flow is
// chaotic in its input (three generator seeds of sb-a gave 13 to 24 s of
// wall time and sHPWL from 7.6e5 to 1.01e6), so a seed that changed the
// structure would make every metric's spread across seeds exceed its
// bound. Renaming changes the bytes the program parses and fingerprints,
// and the determinism guard checks that it changes nothing else.
func workloadDesign(cfg gen.Config, seed int64) (*db.Design, error) {
	d, err := gen.Generate(cfg)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	salt := rng.Uint32()
	for i, k := range rng.Perm(len(d.Cells)) {
		d.Cells[i].Name = fmt.Sprintf("u%08x_%d", salt, k)
	}
	for i, k := range rng.Perm(len(d.Nets)) {
		d.Nets[i].Name = fmt.Sprintf("n%08x_%d", salt, k)
	}
	d.InvalidateNameIndex()
	return d, nil
}

// delta is the i-th ECO edit of a run: about 1% of the standard cells
// removed, 1% added and 1% of the pins moved to other nets.
func delta(base *db.Design, seed int64, i int) *db.Design {
	return gen.Perturb(base, gen.Perturbation{
		Seed:       seed*1_000_003 + int64(i),
		RemoveFrac: 0.01, AddFrac: 0.01, RewireFrac: 0.01,
	})
}

// bundle is a design written as Bookshelf files.
type bundle struct {
	aux   string            // path of the .aux on disk
	files map[string]string // file name → contents, for inline job submission
}

func writeBundle(d *db.Design, dir string) (bundle, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return bundle{}, err
	}
	aux, err := bookshelf.WriteDesign(d, dir)
	if err != nil {
		return bundle{}, err
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return bundle{}, err
	}
	files := make(map[string]string, len(ents))
	for _, e := range ents {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return bundle{}, err
		}
		files[e.Name()] = string(raw)
	}
	return bundle{aux: aux, files: files}, nil
}

// parse reads the bundle back, timed: the parse every user of the flow
// pays before placement starts.
func (bu bundle) parse() (*db.Design, time.Duration, error) {
	t0 := time.Now()
	d, err := bookshelf.ReadDesign(bu.aux)
	return d, time.Since(t0), err
}

// plBytes renders a design's placement as the .pl the program ships.
func plBytes(d *db.Design) []byte {
	var buf bytes.Buffer
	if err := bookshelf.WritePl(&buf, d); err != nil {
		panic(err) // writes to a bytes.Buffer cannot fail
	}
	return buf.Bytes()
}

// applyPl sets every cell of d to its position, orientation and fixed
// flag in pl. A cell missing from pl is an error.
func applyPl(d *db.Design, pl []byte) error {
	p, err := eco.ReadPl(bytes.NewReader(pl))
	if err != nil {
		return err
	}
	for i := range d.Cells {
		c := &d.Cells[i]
		cp, ok := p.Cells[c.Name]
		if !ok {
			return fmt.Errorf("cell %s missing from the placement", c.Name)
		}
		c.Pos.X, c.Pos.Y, c.Orient, c.Fixed = cp.X, cp.Y, cp.Orient, cp.Fixed
	}
	return nil
}

// illegal describes a placement's legality violations ("" when legal).
func illegal(d *db.Design) string {
	ov, fv, oob := d.OverlapViolations(), d.FenceViolations(), d.OutOfDie()
	if ov == 0 && fv == 0 && oob == 0 {
		return ""
	}
	return fmt.Sprintf("%d overlaps, %d fence violations, %d out-of-die cells", ov, fv, oob)
}
