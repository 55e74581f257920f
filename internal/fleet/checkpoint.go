package fleet

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io/fs"
	"os"

	"snowcat/internal/atomicfile"
	"snowcat/internal/campaign"
	"snowcat/internal/explore"
	"snowcat/internal/strategy"
)

// ErrNoCheckpoint reports a resume from a path with no checkpoint file —
// the fresh-campaign case, not a failure.
var ErrNoCheckpoint = errors.New("fleet: no checkpoint")

// checkpointMagic versions the on-disk format; bump on layout changes so
// a stale file fails loudly instead of restoring garbage.
const checkpointMagic = "snowcat-fleet-checkpoint-v1"

// Checkpoint is the complete durable state of a fleet campaign between
// rounds: enough to resume after a coordinator crash — or a shard loss
// taking the coordinator with it — and finish with the exact history an
// uninterrupted run produces. The campaign identity fields guard against
// resuming someone else's file; the state fields are the round-boundary
// snapshots of the three stateful pieces of a campaign (fold, strategy
// memory, quarantine memory). Everything else — the CTI stream, the
// plans, the shard caches — is recomputed, because it is a pure function
// of the config (or, for caches, only affects latency).
type Checkpoint struct {
	Magic     string
	Name      string
	Seed      uint64
	NumCTIs   int
	RoundSize int
	// NextRound is the first unsettled round.
	NextRound int
	Fold      campaign.FoldState
	// Strategy is nil for campaigns without one (plain PCT).
	Strategy *strategy.State
	// Resilience is nil for non-resilient campaigns.
	Resilience *explore.ResilienceState
}

// SaveCheckpoint atomically writes ck to path (atomicfile.WriteFile): a
// crash mid-save leaves the previous checkpoint intact.
func SaveCheckpoint(path string, ck *Checkpoint) error {
	ck.Magic = checkpointMagic
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(ck); err != nil {
		return fmt.Errorf("fleet: checkpoint encode: %w", err)
	}
	if err := atomicfile.WriteFile(path, buf.Bytes(), 0o600); err != nil {
		return fmt.Errorf("fleet: checkpoint: %w", err)
	}
	return nil
}

// LoadCheckpoint reads a checkpoint; ErrNoCheckpoint when the file does
// not exist.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("%w at %s", ErrNoCheckpoint, path)
	}
	if err != nil {
		return nil, fmt.Errorf("fleet: checkpoint: %w", err)
	}
	defer f.Close()
	var ck Checkpoint
	if err := gob.NewDecoder(f).Decode(&ck); err != nil {
		return nil, fmt.Errorf("fleet: checkpoint decode: %w", err)
	}
	if ck.Magic != checkpointMagic {
		return nil, fmt.Errorf("fleet: checkpoint magic %q, want %q", ck.Magic, checkpointMagic)
	}
	return &ck, nil
}
