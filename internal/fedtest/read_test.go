package fedtest_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"exdra/internal/federated"
	"exdra/internal/fedtest"
)

// startSites starts one worker per map, each with a data directory holding
// the given files.
func startSites(t *testing.T, files ...map[string]string) *fedtest.Cluster {
	t.Helper()
	dirs := make([]string, len(files))
	for i, fs := range files {
		dirs[i] = t.TempDir()
		for name, body := range fs {
			if err := os.WriteFile(filepath.Join(dirs[i], name), []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	cl, err := fedtest.Start(fedtest.Config{Workers: len(files), BaseDirs: dirs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl
}

// assertNoObjects flushes the coordinator's deferred frees and checks that
// no worker holds a binding.
func assertNoObjects(t *testing.T, cl *fedtest.Cluster) {
	t.Helper()
	if err := cl.Coord.Flush(); err != nil {
		t.Fatal(err)
	}
	for i, w := range cl.Workers {
		if n := w.NumObjects(); n != 0 {
			t.Errorf("worker %d holds %d objects after the failed READ", i, n)
		}
	}
}

// TestReadColumnMismatchLeavesNoBindings reads a 3-column file at one site
// and a 4-column one at the other: both READs succeed, the constructor
// rejects the pair naming the odd file, and neither binding survives.
func TestReadColumnMismatchLeavesNoBindings(t *testing.T) {
	cl := startSites(t,
		map[string]string{"three.csv": "a,b,c\n1,2,3\n", "three.mcsv": "1,2,3\n4,5,6\n"},
		map[string]string{"four.csv": "a,b,c,d\n1,2,3,4\n", "four.mcsv": "1,2,3,4\n"})
	_, err := federated.ReadFrames(cl.Coord, []federated.ReadSpec{
		{Addr: cl.Addrs[0], Filename: "three.csv"},
		{Addr: cl.Addrs[1], Filename: "four.csv"},
	})
	if err == nil || !strings.Contains(err.Error(), "four.csv") {
		t.Fatalf("ReadFrames error %v, want one naming four.csv", err)
	}
	assertNoObjects(t, cl)
	_, err = federated.ReadRowPartitioned(cl.Coord, []federated.ReadSpec{
		{Addr: cl.Addrs[0], Filename: "three.mcsv"},
		{Addr: cl.Addrs[1], Filename: "four.mcsv"},
	})
	if err == nil || !strings.Contains(err.Error(), "four.mcsv") {
		t.Fatalf("ReadRowPartitioned error %v, want one naming four.mcsv", err)
	}
	assertNoObjects(t, cl)
}

// TestReadFramesFailureSweepsEverySite fails one site's READ while the
// other's succeeds, with the sites in either order: the error is the
// failing site's, and the good site's binding is swept. With both sites
// failing, the error is the first spec's, whichever finishes first.
func TestReadFramesFailureSweepsEverySite(t *testing.T) {
	cl := startSites(t, map[string]string{"good.csv": "a,b\n1,2\n3,4\n"}, nil)
	good := federated.ReadSpec{Addr: cl.Addrs[0], Filename: "good.csv"}
	missing := federated.ReadSpec{Addr: cl.Addrs[1], Filename: "missing.csv"}
	for _, specs := range [][]federated.ReadSpec{{good, missing}, {missing, good}} {
		_, err := federated.ReadFrames(cl.Coord, specs)
		if err == nil || !strings.Contains(err.Error(), cl.Addrs[1]) || !strings.Contains(err.Error(), "missing.csv") {
			t.Fatalf("error %v, want site 1's READ of missing.csv", err)
		}
		assertNoObjects(t, cl)
	}
	gone := federated.ReadSpec{Addr: cl.Addrs[0], Filename: "gone.csv"}
	for _, specs := range [][]federated.ReadSpec{{gone, missing}, {missing, gone}} {
		_, err := federated.ReadFrames(cl.Coord, specs)
		if err == nil || !strings.Contains(err.Error(), specs[0].Filename) {
			t.Fatalf("error %v, want the first spec's (%s)", err, specs[0].Filename)
		}
		assertNoObjects(t, cl)
	}
}
