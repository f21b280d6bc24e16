// Episode dispatch: every episode open travels in an OpenEpisodeBatch —
// (session, scenario) pairs coalesced into a single message on session
// 0, the scheduler's group commit. A worker pool's burst of concurrent
// opens costs one transport send (over TCP, one syscall) instead of one
// per episode; a lone open is a batch of one.

package proto

import (
	"fmt"

	"github.com/avfi/avfi/internal/sim"
)

// MaxBatchOpens bounds one batch on the wire; a count beyond it is stream
// corruption.
const MaxBatchOpens = 1 << 10

// OpenBatchEntry is one episode of a batch: the session to open it on and
// its scenario.
type OpenBatchEntry struct {
	SID    uint32
	Config sim.EpisodeConfig
}

// EncodeOpenEpisodeBatch serializes entries with the batch kind tag. Each
// entry embeds a complete length-prefixed EncodeOpenEpisode message.
func EncodeOpenEpisodeBatch(entries []OpenBatchEntry) []byte {
	buf := make([]byte, 0, 2+2+len(entries)*(4+4+32))
	buf = append(buf, Version, byte(KindOpenEpisodeBatch))
	buf = appendUint16(buf, uint16(len(entries)))
	for _, e := range entries {
		inner := EncodeOpenEpisode(&e.Config)
		buf = appendUint32(buf, e.SID)
		buf = appendUint32(buf, uint32(len(inner)))
		buf = append(buf, inner...)
	}
	return buf
}

// DecodeOpenEpisodeBatch parses an encoded batch.
func DecodeOpenEpisodeBatch(buf []byte) ([]OpenBatchEntry, error) {
	if k, err := Kind(buf); err != nil {
		return nil, err
	} else if k != KindOpenEpisodeBatch {
		return nil, fmt.Errorf("%w: kind %d is not an open-episode batch", ErrCodec, k)
	}
	r := reader{buf: buf, off: 2}
	n := int(r.uint16())
	if n > MaxBatchOpens {
		return nil, fmt.Errorf("%w: batch of %d opens exceeds limit", ErrCodec, n)
	}
	entries := make([]OpenBatchEntry, 0, n)
	for i := 0; i < n; i++ {
		sid := r.uint32()
		innerLen := int(r.uint32())
		if innerLen > MaxPayload {
			return nil, fmt.Errorf("%w: batch entry %d: %d-byte open exceeds limit", ErrCodec, i, innerLen)
		}
		inner := r.bytes(innerLen)
		if r.err != nil {
			return nil, fmt.Errorf("%w: open-episode batch: %v", ErrCodec, r.err)
		}
		cfg, err := DecodeOpenEpisode(inner)
		if err != nil {
			return nil, fmt.Errorf("%w: batch entry %d: %v", ErrCodec, i, err)
		}
		entries = append(entries, OpenBatchEntry{SID: sid, Config: *cfg})
	}
	if r.err != nil || r.off != len(buf) {
		return nil, fmt.Errorf("%w: open-episode batch: malformed", ErrCodec)
	}
	return entries, nil
}
