package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseArgsDefaults(t *testing.T) {
	var stderr bytes.Buffer
	patterns, err := parseArgs(nil, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if len(patterns) != 1 || patterns[0] != "./..." {
		t.Errorf("default patterns = %v, want [./...]", patterns)
	}
}

func TestParseArgsPatterns(t *testing.T) {
	var stderr bytes.Buffer
	patterns, err := parseArgs([]string{"./internal/fedrpc", "./internal/worker"}, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"./internal/fedrpc", "./internal/worker"}
	if len(patterns) != 2 || patterns[0] != want[0] || patterns[1] != want[1] {
		t.Errorf("patterns = %v, want %v", patterns, want)
	}
}

func TestParseArgsBadFlag(t *testing.T) {
	var stderr bytes.Buffer
	if _, err := parseArgs([]string{"-nope"}, &stderr); err == nil {
		t.Fatal("unknown flag accepted")
	}
	if !strings.Contains(stderr.String(), "usage: exdralint") {
		t.Errorf("usage not printed on bad flag; stderr: %q", stderr.String())
	}
}

func TestFindModuleRoot(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root, err := findModuleRoot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Errorf("returned root %s has no go.mod", root)
	}
	if !strings.HasPrefix(wd, root) {
		t.Errorf("root %s is not an ancestor of %s", root, wd)
	}
}

func TestFindModuleRootOutsideModule(t *testing.T) {
	t.Chdir(t.TempDir())
	if _, err := findModuleRoot(); err == nil {
		t.Fatal("expected an error outside any module")
	}
}
