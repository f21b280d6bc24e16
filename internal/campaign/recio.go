// Streaming record I/O: every reader of the durable episode log — resume,
// merge, shard loading, the `avfi records` converter — goes through one
// streaming layer over the binary frame format (binrec.go), the only
// format that is read back. A RecordSource yields records one at a time,
// so resume seeding is O(1) in campaign size. JSONL is an export encoding
// only: a log that does not open with the frame magic is refused with an
// error naming it, never read as zero records.

package campaign

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"github.com/avfi/avfi/internal/metrics"
)

// RecordFormat selects the encoding a record stream is written in.
type RecordFormat int

const (
	// FormatBinary is the frame encoding (NewBinarySink): the one format
	// streamed to disk, read back, resumed from and merged. It is the zero
	// RecordFormat.
	FormatBinary RecordFormat = iota
	// FormatJSONL is the text export encoding, one JSON object per line:
	// MergeRecords, `avfi records` and the service's results endpoint write
	// it, and no reader accepts it.
	FormatJSONL
)

// ParseRecordFormat parses an output format name: "binary" (or "bin") or
// "jsonl".
func ParseRecordFormat(s string) (RecordFormat, error) {
	switch s {
	case "binary", "bin":
		return FormatBinary, nil
	case "jsonl":
		return FormatJSONL, nil
	}
	return FormatBinary, fmt.Errorf("campaign: unknown record format %q (want binary or jsonl)", s)
}

// String implements fmt.Stringer.
func (f RecordFormat) String() string {
	if f == FormatJSONL {
		return "jsonl"
	}
	return "binary"
}

// NewRecordSink returns the sink writing this format to w — the one place
// each format is encoded.
func (f RecordFormat) NewRecordSink(w io.Writer) RecordSink {
	if f == FormatJSONL {
		return newJSONLSink(w)
	}
	return NewBinarySink(w)
}

// RecordSource streams episode records: Read returns the next record, or
// io.EOF after the last (a truncated final frame — the crash-mid-write
// signature — also ends the stream cleanly). Any other error is
// corruption, a log that is not binary, or I/O failure. Sources need not
// be safe for concurrent use.
type RecordSource interface {
	Read() (metrics.EpisodeRecord, error)
}

// binarySource streams one binary log's frames. An incomplete trailing
// frame — header or payload cut short by a crash — is dropped and ends the
// stream; a log that does not open with a frame, or a frame that fails to
// decode, is an error naming the log.
type binarySource struct {
	br      *bufio.Reader
	name    string // the log, for errors
	checked bool   // the first byte was checked
	frame   []byte // reused frame buffer
}

// newRecordReader streams the binary log r. Errors name it by its file
// name when it has one (an *os.File does), else by fallback.
func newRecordReader(r io.Reader, fallback string) *binarySource {
	name := fallback
	if f, ok := r.(interface{ Name() string }); ok {
		name = f.Name()
	}
	return &binarySource{br: bufio.NewReaderSize(r, 64*1024), name: name}
}

func (s *binarySource) fail(err error) error {
	return fmt.Errorf("campaign: reading %s: %w", s.name, err)
}

// check fails fast on a log whose first byte cannot start a frame.
func (s *binarySource) check() error {
	s.checked = true
	b, err := s.br.Peek(1)
	if err != nil && err != io.EOF {
		return s.fail(err)
	}
	if len(b) == 1 && b[0] != binMagic0 {
		return s.fail(notBinaryLog(b[0]))
	}
	return nil
}

// Read implements RecordSource.
func (s *binarySource) Read() (metrics.EpisodeRecord, error) {
	if !s.checked {
		if err := s.check(); err != nil {
			return metrics.EpisodeRecord{}, err
		}
	}
	header, err := s.br.Peek(binHeaderLen)
	if err != nil && err != io.EOF {
		return metrics.EpisodeRecord{}, s.fail(err)
	}
	// Validate what there is of the header before committing to a
	// payload-sized read: a short header ends the stream only if it is a
	// prefix of a valid one.
	if _, _, err := DecodeBinaryRecord(header); err != nil && err != errShortRecord {
		return metrics.EpisodeRecord{}, s.fail(err)
	}
	if len(header) < binHeaderLen {
		return metrics.EpisodeRecord{}, io.EOF // clean end or truncated header
	}
	total := binHeaderLen + int(uint32(header[3])<<24|uint32(header[4])<<16|uint32(header[5])<<8|uint32(header[6]))
	if cap(s.frame) < total {
		s.frame = make([]byte, total)
	}
	s.frame = s.frame[:total]
	if _, err := io.ReadFull(s.br, s.frame); err != nil {
		if err == io.ErrUnexpectedEOF {
			return metrics.EpisodeRecord{}, io.EOF // truncated payload
		}
		return metrics.EpisodeRecord{}, s.fail(err)
	}
	rec, _, err := DecodeBinaryRecord(s.frame)
	if err != nil {
		return metrics.EpisodeRecord{}, s.fail(err)
	}
	return rec, nil
}

// RecordStream is a RecordSource over files that the caller must Close.
// Close is safe after the stream is exhausted and on every error path.
type RecordStream struct {
	src   *binarySource
	paths []string // remaining shard logs (directory streams)
	f     *os.File // file backing src, nil when exhausted
}

// OpenRecordsPath opens a binary record log for streaming: a file streams
// its records (a file that is not a binary log fails here, naming it), a
// directory streams every shard log it holds (records-*.bin, in sorted
// name order). A directory holding no shard log fails, naming it and any
// other records-* files in it, so that a resume from the wrong directory
// never silently re-runs the whole campaign. The directory stream's record
// order is per-shard completion order, not the canonical campaign order;
// resume seeding is order-independent, and MergeRecords sorts. Reading
// holds at most one file open at a time, so resuming a million-episode
// shard directory costs one fd and one record of memory.
func OpenRecordsPath(path string) (*RecordStream, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	s := &RecordStream{}
	if info.IsDir() {
		if s.paths, err = shardLogPaths(path); err != nil {
			return nil, err
		}
		if len(s.paths) == 0 {
			return nil, noShardLogs(path)
		}
		return s, nil
	}
	if err := s.open(path); err != nil {
		return nil, err
	}
	if err := s.src.check(); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

func (s *RecordStream) open(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("campaign: %w", err)
	}
	s.f, s.src = f, newRecordReader(f, path)
	return nil
}

// Read implements RecordSource.
func (s *RecordStream) Read() (metrics.EpisodeRecord, error) {
	for {
		if s.src == nil {
			if len(s.paths) == 0 {
				return metrics.EpisodeRecord{}, io.EOF
			}
			if err := s.open(s.paths[0]); err != nil {
				return metrics.EpisodeRecord{}, err
			}
			s.paths = s.paths[1:]
		}
		rec, err := s.src.Read()
		if err != io.EOF {
			return rec, err
		}
		s.src = nil
		if err := s.Close(); err != nil {
			return metrics.EpisodeRecord{}, fmt.Errorf("campaign: %w", err)
		}
	}
}

// Close releases the stream's open file, if any.
func (s *RecordStream) Close() error {
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	s.f = nil
	return err
}

// shardLogPaths lists every shard log in dir in sorted name order.
func shardLogPaths(dir string) ([]string, error) {
	paths, err := filepath.Glob(filepath.Join(dir, binShardLogPattern))
	if err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	sort.Strings(paths)
	return paths, nil
}

// noShardLogs is OpenRecordsPath's error for a directory without shard
// logs; it lists the directory's other records-* files, such as JSONL
// exports or logs from before binary was the only log format.
func noShardLogs(dir string) error {
	others, _ := filepath.Glob(filepath.Join(dir, "records-*"))
	if len(others) == 0 {
		return fmt.Errorf("campaign: directory %s holds no binary shard log (%s)", dir, binShardLogPattern)
	}
	names := make([]string, len(others))
	for i, p := range others {
		names[i] = filepath.Base(p)
	}
	return fmt.Errorf("campaign: directory %s holds no binary shard log (%s), only %s, which are not binary record logs",
		dir, binShardLogPattern, strings.Join(names, ", "))
}

// LoadRecords reads every record from one binary log, with the stream's
// truncated-tail tolerance. Errors name the log when r is a file.
func LoadRecords(r io.Reader) ([]metrics.EpisodeRecord, error) {
	return drainSource(newRecordReader(r, "record log"))
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
