package main

import (
	"fmt"
	"path/filepath"

	"traceback/internal/workload"
)

// tablesFile is where the paper's tables are committed, alone in its
// directory because stale() owns every file beside a generated one.
const tablesFile = "internal/workload/testdata/tables.txt"

// genTables measures the paper's evaluation tables at the published
// scale and writes them — unless they lost the shape EXPERIMENTS.md
// claims, in which case nothing is written.
func genTables(root string) error {
	t, err := workload.RunTables()
	if err != nil {
		return err
	}
	if err := t.Check(); err != nil {
		return fmt.Errorf("refusing to write %s: %w", tablesFile, err)
	}
	return writeFile(filepath.Join(root, filepath.FromSlash(tablesFile)), []byte(t.String()))
}
