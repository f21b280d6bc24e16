// Streaming record I/O: every reader of the durable episode log — resume,
// merge, shard loading, the avfi-records converter — goes through one
// format-agnostic streaming layer. A RecordSource yields records one at a
// time, so resume seeding is O(1) in campaign size, and format detection
// is per file (binary frames open with 0xAF, which no JSON line can), so
// JSONL and binary shard logs mix freely in one directory.

package campaign

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"github.com/avfi/avfi/internal/metrics"
)

// RecordFormat selects the on-disk encoding of an episode record log.
type RecordFormat int

const (
	// FormatAuto detects per file: binary by its 0xAF magic, JSONL
	// otherwise. Writers treat it as FormatBinary, the fresh-run default.
	FormatAuto RecordFormat = iota
	// FormatJSONL is the text interchange encoding (NewJSONLSink).
	FormatJSONL
	// FormatBinary is the hot-path frame encoding (NewBinarySink).
	FormatBinary
)

// ParseRecordFormat parses a -record-format flag value.
func ParseRecordFormat(s string) (RecordFormat, error) {
	switch s {
	case "auto":
		return FormatAuto, nil
	case "jsonl":
		return FormatJSONL, nil
	case "binary", "bin":
		return FormatBinary, nil
	}
	return FormatAuto, fmt.Errorf("campaign: unknown record format %q (want auto, jsonl, or binary)", s)
}

// String implements fmt.Stringer.
func (f RecordFormat) String() string {
	switch f {
	case FormatJSONL:
		return "jsonl"
	case FormatBinary:
		return "binary"
	default:
		return "auto"
	}
}

// ShardLogName names shard i's record log for this format inside a shard
// directory (FormatAuto names the binary default).
func (f RecordFormat) ShardLogName(i int) string {
	if f == FormatJSONL {
		return ShardLogName(i)
	}
	return BinaryShardLogName(i)
}

// NewRecordSink returns the sink writing this format to w (FormatAuto
// writes binary, the fresh-run default).
func (f RecordFormat) NewRecordSink(w io.Writer) RecordSink {
	if f == FormatJSONL {
		return NewJSONLSink(w)
	}
	return NewBinarySink(w)
}

// SniffRecordFormat reports the format of a record log from its leading
// bytes: FormatBinary on the frame magic, FormatAuto (unknown) on an empty
// prefix, FormatJSONL otherwise.
func SniffRecordFormat(prefix []byte) RecordFormat {
	if len(prefix) == 0 {
		return FormatAuto
	}
	if prefix[0] == binMagic0 {
		return FormatBinary
	}
	return FormatJSONL
}

// RecordSource streams episode records: Read returns the next record, or
// io.EOF after the last (a truncated tail — the crash-mid-write signature
// in either format — also ends the stream cleanly). Any other error is
// corruption or I/O failure. Sources need not be safe for concurrent use.
type RecordSource interface {
	Read() (metrics.EpisodeRecord, error)
}

// NewRecordReader streams records from one log in either format,
// auto-detected from the first byte.
func NewRecordReader(r io.Reader) RecordSource {
	return &recordReader{br: bufio.NewReaderSize(r, 64*1024)}
}

// recordReader defers the format decision to the first Read, when the
// first byte is available.
type recordReader struct {
	br  *bufio.Reader
	src RecordSource
}

// Read implements RecordSource.
func (r *recordReader) Read() (metrics.EpisodeRecord, error) {
	if r.src == nil {
		b, err := r.br.Peek(1)
		if err != nil {
			if err == io.EOF {
				return metrics.EpisodeRecord{}, io.EOF
			}
			return metrics.EpisodeRecord{}, fmt.Errorf("campaign: resume: %w", err)
		}
		if b[0] == binMagic0 {
			r.src = &binarySource{br: r.br}
		} else {
			r.src = newJSONLSource(r.br)
		}
	}
	return r.src.Read()
}

// binarySource streams binary frames. An incomplete trailing frame —
// header or payload cut short by a crash — is dropped and ends the stream;
// a complete frame that fails to decode is corruption.
type binarySource struct {
	br    *bufio.Reader
	frame []byte // reused frame buffer
}

// Read implements RecordSource.
func (s *binarySource) Read() (metrics.EpisodeRecord, error) {
	header, err := s.br.Peek(binHeaderLen)
	if err != nil {
		if err == io.EOF {
			// 0 bytes left is the clean end; 1..6 is a truncated tail,
			// tolerated the same way.
			return metrics.EpisodeRecord{}, io.EOF
		}
		return metrics.EpisodeRecord{}, fmt.Errorf("campaign: resume: %w", err)
	}
	// Validate the header before committing to a payload-sized read.
	if _, _, err := DecodeBinaryRecord(header); err != nil && err != errShortRecord {
		return metrics.EpisodeRecord{}, fmt.Errorf("campaign: resume: %w", err)
	}
	payload := int(uint32(header[3])<<24 | uint32(header[4])<<16 | uint32(header[5])<<8 | uint32(header[6]))
	total := binHeaderLen + payload
	if cap(s.frame) < total {
		s.frame = make([]byte, total)
	}
	s.frame = s.frame[:total]
	if _, err := io.ReadFull(s.br, s.frame); err != nil {
		if err == io.ErrUnexpectedEOF {
			return metrics.EpisodeRecord{}, io.EOF // truncated tail
		}
		return metrics.EpisodeRecord{}, fmt.Errorf("campaign: resume: %w", err)
	}
	rec, _, err := DecodeBinaryRecord(s.frame)
	if err != nil {
		return metrics.EpisodeRecord{}, fmt.Errorf("campaign: resume: %w", err)
	}
	return rec, nil
}

// jsonlSource streams JSONL records with the resume loader's tail
// tolerance: a bad line is fatal only when a later non-empty line follows,
// so a truncated or corrupt final line is dropped.
type jsonlSource struct {
	sc      *bufio.Scanner
	pending error
	line    int
}

func newJSONLSource(r io.Reader) *jsonlSource {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 16<<20)
	return &jsonlSource{sc: sc}
}

// Read implements RecordSource.
func (s *jsonlSource) Read() (metrics.EpisodeRecord, error) {
	for s.sc.Scan() {
		s.line++
		raw := bytes.TrimSpace(s.sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		if s.pending != nil {
			return metrics.EpisodeRecord{}, s.pending
		}
		var rec metrics.EpisodeRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			s.pending = fmt.Errorf("campaign: resume: line %d: %w", s.line, err)
			continue
		}
		return rec, nil
	}
	if err := s.sc.Err(); err != nil {
		return metrics.EpisodeRecord{}, fmt.Errorf("campaign: resume: %w", err)
	}
	return metrics.EpisodeRecord{}, io.EOF
}

// RecordStream is a RecordSource over files that the caller must Close.
// Close is safe after the stream is exhausted and on every error path.
type RecordStream struct {
	src   RecordSource
	paths []string // remaining shard logs (directory streams)
	f     *os.File // file backing src, nil when exhausted
}

// OpenRecordsPath opens a record log for streaming: a file streams its
// records, a directory streams every shard log it holds (records-*.jsonl
// and records-*.bin, in sorted name order). Format is auto-detected per
// file. Reading holds at most one file open at a time, so resuming a
// million-episode shard directory costs one fd and one record of memory.
func OpenRecordsPath(path string) (*RecordStream, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, fmt.Errorf("campaign: resume: %w", err)
	}
	if info.IsDir() {
		return OpenRecordsDir(path)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("campaign: resume: %w", err)
	}
	return &RecordStream{src: NewRecordReader(f), f: f}, nil
}

// OpenRecordsDir streams every shard log in dir, in sorted name order —
// the streaming counterpart of LoadRecordsDir. The stream's record order
// is per-shard completion order, not the canonical campaign order; resume
// seeding is order-independent, and callers that need the canonical order
// sort after draining (LoadRecordsDir) or merge (MergeRecordsJSONL).
func OpenRecordsDir(dir string) (*RecordStream, error) {
	paths, err := shardLogPaths(dir)
	if err != nil {
		return nil, err
	}
	return &RecordStream{paths: paths}, nil
}

// Read implements RecordSource.
func (s *RecordStream) Read() (metrics.EpisodeRecord, error) {
	for {
		if s.src == nil {
			if len(s.paths) == 0 {
				return metrics.EpisodeRecord{}, io.EOF
			}
			f, err := os.Open(s.paths[0])
			if err != nil {
				return metrics.EpisodeRecord{}, fmt.Errorf("campaign: resume: %w", err)
			}
			s.paths = s.paths[1:]
			s.f, s.src = f, NewRecordReader(f)
		}
		rec, err := s.src.Read()
		if err == io.EOF {
			s.src = nil
			if s.f != nil {
				closeErr := s.f.Close()
				s.f = nil
				if closeErr != nil {
					return metrics.EpisodeRecord{}, fmt.Errorf("campaign: resume: %w", closeErr)
				}
			}
			continue
		}
		if err != nil && s.f != nil {
			return metrics.EpisodeRecord{}, fmt.Errorf("campaign: resume: %s: %w", filepath.Base(s.f.Name()), unwrapResume(err))
		}
		return rec, err
	}
}

// unwrapResume strips the "campaign: resume: " layer a per-file source
// already added, so directory streams name the shard without doubling the
// prefix.
func unwrapResume(err error) error {
	return errTrimPrefix{err}
}

// errTrimPrefix hides one "campaign: resume: " prefix when printing while
// preserving the wrapped chain for errors.Is/As.
type errTrimPrefix struct{ err error }

func (e errTrimPrefix) Error() string {
	const prefix = "campaign: resume: "
	msg := e.err.Error()
	if len(msg) > len(prefix) && msg[:len(prefix)] == prefix {
		return msg[len(prefix):]
	}
	return msg
}

func (e errTrimPrefix) Unwrap() error { return e.err }

// Close releases the stream's open file, if any.
func (s *RecordStream) Close() error {
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	s.f = nil
	return err
}

// shardLogPaths lists every shard log in dir — both formats — in sorted
// name order.
func shardLogPaths(dir string) ([]string, error) {
	var paths []string
	for _, pattern := range []string{shardLogPattern, binShardLogPattern} {
		part, err := filepath.Glob(filepath.Join(dir, pattern))
		if err != nil {
			return nil, fmt.Errorf("campaign: resume: %w", err)
		}
		paths = append(paths, part...)
	}
	sort.Strings(paths)
	return paths, nil
}

// LoadRecords reads every record from one log in either format — the
// auto-detecting counterpart of LoadRecordsJSONL, same tail tolerance.
func LoadRecords(r io.Reader) ([]metrics.EpisodeRecord, error) {
	return drainSource(NewRecordReader(r))
}

// drainSource collects a source's remaining records.
func drainSource(src RecordSource) ([]metrics.EpisodeRecord, error) {
	var recs []metrics.EpisodeRecord
	for {
		rec, err := src.Read()
		if err == io.EOF {
			return recs, nil
		}
		if err != nil {
			return nil, err
		}
		recs = append(recs, rec)
	}
}
