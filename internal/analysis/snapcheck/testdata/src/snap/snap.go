package snap

import "recycledb/internal/catalog"

// scanOpen reads table state directly: findings.
func scanOpen(t *catalog.Table) int {
	s := t.Snapshot() // want `direct catalog.Table.Snapshot read in scanOpen`
	_ = s
	ver, _ := t.Tag() // want `direct catalog.Table.Tag read in scanOpen`
	_ = ver
	return t.Rows() // want `direct catalog.Table.Rows read in scanOpen`
}

// SnapFor is the sanctioned capture point: reads inside it are legal.
func SnapFor(t *catalog.Table) *catalog.Snapshot {
	return t.Snapshot()
}

// justified carries a snap-ok justification (e.g. a stats estimate that
// may legitimately observe the live epoch).
func justified(t *catalog.Table) int64 {
	//recycledb:snap-ok — live-epoch estimate, not a result read
	return t.DataVersion()
}

// resolve only obtains a handle; Catalog.Table is not a data read.
func resolve(c *catalog.Catalog, name string) (*catalog.Table, error) {
	return c.Table(name)
}

// snapshotReads read the already-captured snapshot: always legal.
func snapshotReads(s *catalog.Snapshot) int64 {
	return s.Bytes()
}
