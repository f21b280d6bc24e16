#!/usr/bin/env bash
# Retrains the committed benchmark agent with the repository's default
# recipe and refreshes its checksum. Run from anywhere; takes a minute or two.
# A new agent changes every campaign workload's record digest, so measure
# the baseline again after committing it.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."
go run ./cmd/avfi-train -eval 0 -out "$here/testdata/agent-default.avfi"
sha256sum "$here/testdata/agent-default.avfi" | cut -d' ' -f1 > "$here/testdata/agent-default.sha256"
echo "agent-default.avfi sha256 $(cat "$here/testdata/agent-default.sha256")"
