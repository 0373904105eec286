#!/usr/bin/env bash
# Non-test Go line count of the module, the figure CHANGES.md reports:
# every .go file except _test.go files and testdata trees, with blank
# lines and full-line // comments dropped.
#
# Usage: scripts/loc.sh            (from the repo root or anywhere)
set -euo pipefail

cd "$(dirname "$0")/.."

find . -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' -print0 |
	xargs -0 cat |
	grep -Ev '^[[:space:]]*(//.*)?$' |
	wc -l
