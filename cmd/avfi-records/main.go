// Command avfi-records merges AVFI binary episode record logs and exports
// them: any set of logs — single-sink files, shard directories, any mix —
// merges into the one canonical record stream, byte-identical for
// identical episode sets regardless of how the campaign sharded them. The
// output is the JSONL export (the default) or a canonical binary log.
//
// Usage:
//
//	avfi-records logs/                       # shard dir -> JSONL export on stdout
//	avfi-records -format binary -o merged.bin run1/ run2/ extra.bin
//	avfi-records -o merged.jsonl run1/ run2/ extra.bin
//
// Inputs must be binary record logs; anything else (a JSONL export
// included) is refused with an error naming the file. Crash-truncated
// tails are dropped, exactly as -resume drops them.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"github.com/avfi/avfi"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "avfi-records: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("avfi-records", flag.ContinueOnError)
	formatFlag := fs.String("format", "jsonl", "output record format: jsonl|binary")
	outPath := fs.String("o", "", "write the merged log here (default: stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("no input logs (pass record files or shard directories)")
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

	out := stdout
	var outFile *os.File
	if *outPath != "" {
		if outFile, err = os.Create(*outPath); err != nil {
			return err
		}
		out = outFile
	}
	n, err := avfi.MergeRecords(out, format, files...)
	if err != nil {
		if outFile != nil {
			outFile.Close()
		}
		return err
	}
	if outFile != nil {
		if err := outFile.Close(); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "avfi-records: merged %d episodes from %d log(s) as %s\n", n, len(paths), format)
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

// sameFile reports whether two paths name the same underlying file; a
// path that doesn't stat is not the same file as anything.
func sameFile(a, b string) bool {
	ai, err := os.Stat(a)
	if err != nil {
		return false
	}
	bi, err := os.Stat(b)
	if err != nil {
		return false
	}
	return os.SameFile(ai, bi)
}
