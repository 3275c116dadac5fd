package faultinject

import (
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"nra/internal/catalog"
	"nra/internal/csvio"
	"nra/internal/relation"
	"nra/internal/value"
	"nra/internal/vfs"
	"nra/internal/wal"
)

// The FS crash-point matrix: a durable session (load → three journaled
// DML commits → full save + WAL checkpoint) is run once per filesystem
// operation with a crash injected exactly there, under both reboot
// modes and both on-disk formats (binary columnar segments and CSV).
// After every crash, recovery must land on exactly the pre- or
// post-state of some committed batch — never a torn state: a torn
// segment write must be caught by the manifest CRC or segment
// checksums and recovery must fall back to the committed manifest
// boundary. Recovery must never lose an acknowledged commit in
// LoseUnsynced mode, and must leave no temp files or orphan segment
// generations behind.

const faultDir = "/db"

func baseCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	s := relation.MustFromRows("S", []string{"a", "b"},
		[]any{1, 10}, []any{2, 20}, []any{3, nil})
	if _, err := cat.Create("S", s, "a"); err != nil {
		t.Fatal(err)
	}
	tt := relation.MustFromRows("T", []string{"k", "v"},
		[]any{7, "x"}, []any{8, `\N`}, []any{9, ""})
	if _, err := cat.Create("T", tt, "k"); err != nil {
		t.Fatal(err)
	}
	return cat
}

// batches are the journaled commits the workload runs, in order.
var batches = []wal.Record{
	{Op: wal.OpInsert, Table: "S", Rows: [][]wal.Cell{
		wal.EncodeRow([]value.Value{value.Int(4), value.Int(40)}),
		wal.EncodeRow([]value.Value{value.Int(5), value.Null}),
	}},
	{Op: wal.OpDelete, Table: "T", Keys: wal.EncodeRow([]value.Value{value.Int(8)})},
	{Op: wal.OpUpdate, Table: "S",
		Keys: wal.EncodeRow([]value.Value{value.Int(2)}),
		Cols: []string{"b"},
		Vals: [][]wal.Cell{wal.EncodeRow([]value.Value{value.Int(99)})}},
}

// setup seeds a fresh filesystem with the durable base state: a full
// save of the base catalog in the given format plus an empty journal.
func setup(t *testing.T, format csvio.Format) *FaultFS {
	t.Helper()
	fsys := NewFaultFS()
	if _, err := csvio.SaveFSAs(fsys, baseCatalog(t).Snapshot(), faultDir, format); err != nil {
		t.Fatal(err)
	}
	l, err := wal.Open(fsys, filepath.Join(faultDir, csvio.WALName), 1, wal.SyncOnCommit)
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	return fsys
}

// workload opens the durable directory, commits the batches (journal
// first, then the in-memory catalog), then runs a full save with a WAL
// checkpoint. It returns how many batches were acknowledged (journal
// append returned success) before any failure.
func workload(fsys vfs.FS, format csvio.Format) (acked int, err error) {
	cat, ckpt, err := csvio.LoadFS(fsys, faultDir)
	if err != nil {
		return 0, err
	}
	walPath := filepath.Join(faultDir, csvio.WALName)
	recs, err := wal.Replay(fsys, walPath, ckpt)
	if err != nil {
		return 0, err
	}
	if err := wal.Apply(cat, recs); err != nil {
		return 0, err
	}
	l, err := wal.Open(fsys, walPath, ckpt, wal.SyncOnCommit)
	if err != nil {
		return 0, err
	}
	defer l.Close()
	for _, rec := range batches {
		if err := l.Append(rec); err != nil {
			return acked, err
		}
		if err := wal.Apply(cat, []wal.Record{rec}); err != nil {
			return acked, err
		}
		acked++
	}
	newCkpt, err := csvio.SaveFSAs(fsys, cat.Snapshot(), faultDir, format)
	if err != nil {
		return acked, err
	}
	if err := l.Checkpoint(newCkpt); err != nil {
		return acked, err
	}
	return acked, nil
}

// recoverDB reloads the directory exactly like a restarting engine.
func recoverDB(fsys vfs.FS) (*catalog.Catalog, error) {
	cat, ckpt, err := csvio.LoadFS(fsys, faultDir)
	if err != nil {
		return nil, err
	}
	recs, err := wal.Replay(fsys, filepath.Join(faultDir, csvio.WALName), ckpt)
	if err != nil {
		return nil, err
	}
	if err := wal.Apply(cat, recs); err != nil {
		return nil, err
	}
	return cat, nil
}

// fingerprint renders the catalog's full data content order-independently.
func fingerprint(cat *catalog.Catalog) string {
	var sb strings.Builder
	for _, name := range cat.Names() {
		tbl, err := cat.Table(name)
		if err != nil {
			panic(err)
		}
		rows := make([]string, tbl.Rel.Len())
		for i, tup := range tbl.Rel.Tuples {
			cells := make([]string, len(tup.Atoms))
			for j, v := range tup.Atoms {
				cells[j] = fmt.Sprintf("%s:%s", v.Kind(), v)
			}
			rows[i] = strings.Join(cells, "|")
		}
		sort.Strings(rows)
		fmt.Fprintf(&sb, "%s{%s}\n", name, strings.Join(rows, ";"))
	}
	return sb.String()
}

// committedStates returns the fingerprint after 0..len(batches) commits.
func committedStates(t *testing.T) []string {
	t.Helper()
	cat := baseCatalog(t)
	states := []string{fingerprint(cat)}
	for _, rec := range batches {
		if err := wal.Apply(cat, []wal.Record{rec}); err != nil {
			t.Fatal(err)
		}
		states = append(states, fingerprint(cat))
	}
	return states
}

func TestFSCrashPointMatrix(t *testing.T) {
	for _, format := range []csvio.Format{csvio.FormatColumnar, csvio.FormatCSV} {
		t.Run(format.String(), func(t *testing.T) {
			crashPointMatrix(t, format)
		})
	}
}

func crashPointMatrix(t *testing.T, format csvio.Format) {
	states := committedStates(t)

	// Census: run the workload once, unarmed, to count its FS operations.
	census := setup(t, format)
	base := census.OpCount()
	if acked, err := workload(census, format); err != nil || acked != len(batches) {
		t.Fatalf("census run failed: acked=%d err=%v", acked, err)
	}
	total := census.OpCount()
	if total-base < 20 {
		t.Fatalf("workload hit only %d FS operations; the crash matrix is too sparse to mean anything", total-base)
	}

	// Recovery with no crash at all reproduces the final state.
	if got := mustRecover(t, census, "no-crash"); got != states[len(states)-1] {
		t.Fatalf("clean recovery diverged from the final committed state:\n%s", got)
	}

	for n := base + 1; n <= total; n++ {
		for _, mode := range []RebootMode{LoseUnsynced, KeepAll} {
			name := fmt.Sprintf("op%d/mode%d", n, mode)
			fsys := setup(t, format).CrashAt(n)
			acked, err := workload(fsys, format)
			if err == nil && !fsys.Crashed() {
				t.Fatalf("%s: crash never fired", name)
			}
			fsys.Reboot(mode)

			got := mustRecover(t, fsys, name)
			idx := -1
			for i, s := range states {
				if got == s {
					idx = i
					break
				}
			}
			if idx < 0 {
				t.Fatalf("%s: recovered a TORN state (matches no committed batch boundary):\n%s", name, got)
			}
			if mode == LoseUnsynced && idx < acked {
				t.Fatalf("%s: lost an acknowledged commit: recovered state %d, %d were acknowledged", name, idx, acked)
			}

			assertDirClean(t, fsys, name)
		}
	}
}

// mustRecover runs recovery and fingerprints the result; recovery
// failing after a crash IS a torn state.
func mustRecover(t *testing.T, fsys *FaultFS, name string) string {
	t.Helper()
	cat, err := recoverDB(fsys)
	if err != nil {
		t.Fatalf("%s: recovery failed: %v", name, err)
	}
	return fingerprint(cat)
}

// assertDirClean pins the zero-leftovers invariant: after recovery the
// directory holds only the manifest, the journal and manifest-referenced
// data files (segments or CSV) — no temp files, no orphan generations.
func assertDirClean(t *testing.T, fsys *FaultFS, name string) {
	t.Helper()
	names, err := fsys.ReadDirNames(faultDir)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	manRaw, err := fsys.ReadFile(filepath.Join(faultDir, "catalog.json"))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for _, f := range names {
		if strings.HasSuffix(f, ".tmp") {
			t.Fatalf("%s: leftover temp file %s", name, f)
		}
		if f == "catalog.json" || f == csvio.WALName {
			continue
		}
		if !strings.Contains(string(manRaw), fmt.Sprintf("%q", f)) {
			t.Fatalf("%s: orphan file %s not referenced by the manifest", name, f)
		}
	}
}

// TestFaultFSModel pins the crash model itself: unsynced bytes die in a
// LoseUnsynced reboot, synced and renamed bytes survive, and every
// operation after the strike fails.
func TestFaultFSModel(t *testing.T) {
	fsys := NewFaultFS()
	if err := fsys.MkdirAll("/d"); err != nil {
		t.Fatal(err)
	}
	f, err := fsys.Create("/d/a")
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("synced"))
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("+volatile"))
	f.Close()

	g, _ := fsys.Create("/d/b.tmp")
	g.Write([]byte("payload"))
	g.Sync()
	g.Close()
	if err := fsys.Rename("/d/b.tmp", "/d/b"); err != nil {
		t.Fatal(err)
	}

	fsys.CrashAt(fsys.OpCount() + 1)
	if _, err := fsys.Create("/d/c"); !errors.Is(err, ErrInjected) {
		t.Fatalf("strike error = %v", err)
	}
	if _, err := fsys.ReadFile("/d/a"); !errors.Is(err, ErrInjected) {
		t.Fatal("dead filesystem must refuse reads")
	}

	fsys.Reboot(LoseUnsynced)
	a, err := fsys.ReadFile("/d/a")
	if err != nil || string(a) != "synced" {
		t.Fatalf("a = %q, %v; want synced prefix only", a, err)
	}
	b, err := fsys.ReadFile("/d/b")
	if err != nil || string(b) != "payload" {
		t.Fatalf("renamed file lost: %q, %v", b, err)
	}
	if c, err := fsys.ReadFile("/d/c"); err == nil {
		// Create durably registers the file; its content must be empty.
		if len(c) != 0 {
			t.Fatalf("crashed create left content %q", c)
		}
	}
}
