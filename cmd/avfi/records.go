package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"github.com/avfi/avfi"
)

// records is `avfi records LOG...`: any set of binary record logs —
// single-sink files, shard directories, any mix — merges into the one
// canonical record stream, byte-identical for identical episode sets
// however the campaign sharded them, written as the JSONL export (the
// default) or a canonical binary log. An input that is not a binary log (a
// JSONL export included) is refused, naming it; crash-truncated tails are
// dropped, as `run -resume` drops them.
func records(args []string, stdout, stderr io.Writer) error {
	fs := flagSet("records", stderr)
	formatFlag := fs.String("format", "jsonl", "output record format: jsonl|binary")
	outPath := fs.String("o", "", "write the merged log here (default: stdout)")
	if err := parseFlags(fs, args, -1); err != nil {
		return err
	}
	format, err := avfi.ParseRecordFormat(*formatFlag)
	if err != nil {
		return err
	}
	paths, err := expandInputs(fs.Args())
	if err != nil {
		return err
	}
	if len(paths) == 0 {
		return fmt.Errorf("no record logs found in %v", fs.Args())
	}
	if *outPath != "" {
		// os.Create truncates before the merge reads anything: writing the
		// output over one of its own inputs would silently destroy it.
		for _, p := range paths {
			if sameFile(*outPath, p) {
				return fmt.Errorf("output %s is also an input; merge to a different path", *outPath)
			}
		}
	}

	files := make([]io.Reader, 0, len(paths))
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return err
		}
		defer f.Close()
		files = append(files, f)
	}

	var n int
	merge := func(w io.Writer) (err error) {
		n, err = avfi.MergeRecords(w, format, files...)
		return err
	}
	if *outPath == "" {
		err = merge(stdout)
	} else {
		err = writeFile(*outPath, merge)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "records: merged %d episodes from %d log(s) as %s\n", n, len(paths), format)
	return nil
}

// expandInputs resolves each argument to record log paths: a file names
// itself, a directory contributes every shard log it holds
// (records-*.bin, sorted), so whole -stream-records directories merge in
// one command.
func expandInputs(args []string) ([]string, error) {
	var paths []string
	for _, arg := range args {
		info, err := os.Stat(arg)
		if err != nil {
			return nil, err
		}
		if !info.IsDir() {
			paths = append(paths, arg)
			continue
		}
		shards, err := filepath.Glob(filepath.Join(arg, "records-*.bin"))
		if err != nil {
			return nil, err
		}
		sort.Strings(shards)
		paths = append(paths, shards...)
	}
	return paths, nil
}
