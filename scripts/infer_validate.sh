#!/bin/sh
# infer_validate.sh — differential validation of the attrinfer pipeline.
#
# Proves, end to end, that the module's committed annotations are exactly
# what the analyzer derives and that deriving them is safe:
#
#   1. The committed tree is inference-clean: `xmem-vet -run attrinfer
#      -json` over the whole module reports zero findings (the JSON is
#      schema-validated), and `-fix-dry` prints no edits — the tree is a
#      fixed point of the fixer.
#   2. In a scratch copy of the module, examples/inferdemo/main.go is
#      reverted to its preserved pre-fix form; attrinfer must report
#      findings there, `-fix` must resolve ALL of them, the result must be
#      gofmt-clean, and re-running attrinfer AND attrtruth over the fixed
#      scratch module must be silent — the applied inferences contradict
#      nothing the truth analyzer can prove.
#   3. Idempotency: `-fix-dry` on the fixed scratch tree prints no edits.
#   4. Provenance: the fixed scratch example is byte-identical to the
#      committed one, so the committed annotations are machine output.
#   5. Simulator differential: `xmem-sim -infer-smoke` on one tiled kernel
#      and one synthetic, plus the inferdemo example's own -check run —
#      declaring the inferred attributes must not make the memory system
#      worse (L3 hit rate down AND cycles up).
#
# The scratch copy and its outputs go to $INFER_VALIDATE_DIR, by default the
# git-ignored .smoke/infer_validate in the repo (the Go tool and the xmem-vet
# loader skip dot-directories, and the copy excludes .smoke itself).
#
# Exits non-zero on the first violated step.
set -eu

ROOT=$(cd "$(dirname "$0")/.." && pwd)
GO=${GO:-go}
SCRATCH=${INFER_VALIDATE_DIR:-$ROOT/.smoke/infer_validate}
PREFIX=internal/analysis/testdata/inferdemo_prefix/main.go.txt
EXAMPLE=examples/inferdemo/main.go

step() { printf '== %s\n' "$*"; }

step "committed tree: attrinfer reports zero findings (JSON, schema-checked)"
rm -rf "$SCRATCH"
mkdir -p "$SCRATCH"
(cd "$ROOT" && $GO run ./cmd/xmem-vet -run attrinfer -json ./...) \
	> "$SCRATCH/results_vet_infer.json"
(cd "$ROOT" && $GO run ./cmd/xmem-inspect -vet "$SCRATCH/results_vet_infer.json")

step "committed tree: -fix-dry prints no edits (tree is a fixed point)"
dry=$(cd "$ROOT" && $GO run ./cmd/xmem-vet -run attrinfer -fix-dry ./...)
if [ -n "$dry" ]; then
	echo "infer-validate: committed tree is not a fixer fixed point:" >&2
	printf '%s\n' "$dry" >&2
	exit 1
fi

step "scratch copy with pre-fix example"
(cd "$ROOT" && tar --exclude=.git --exclude=./.bench_build --exclude=./.smoke -cf - .) |
	tar -xf - -C "$SCRATCH"
cp "$ROOT/$PREFIX" "$SCRATCH/$EXAMPLE"

step "pre-fix example: attrinfer must report findings"
set +e
(cd "$SCRATCH" && $GO run ./cmd/xmem-vet -run attrinfer examples/inferdemo) \
	> "$SCRATCH/prefix_findings.txt" 2>/dev/null
status=$?
set -e
if [ "$status" -ne 1 ] || [ ! -s "$SCRATCH/prefix_findings.txt" ]; then
	echo "infer-validate: expected findings on the pre-fix example (exit 1), got exit $status" >&2
	exit 1
fi
sed 's/^/   /' "$SCRATCH/prefix_findings.txt"

step "apply fixes: every finding must have a machine-applicable fix"
(cd "$SCRATCH" && $GO run ./cmd/xmem-vet -run attrinfer -fix examples/inferdemo)

step "fixed example is gofmt-clean"
fmt=$(gofmt -l "$SCRATCH/examples/inferdemo")
if [ -n "$fmt" ]; then
	echo "infer-validate: gofmt needed on: $fmt" >&2
	exit 1
fi

step "fixed scratch module: attrinfer and attrtruth both silent"
(cd "$SCRATCH" && $GO run ./cmd/xmem-vet -run attrinfer,attrtruth ./...)

step "idempotency: -fix-dry on the fixed tree prints no edits"
dry=$(cd "$SCRATCH" && $GO run ./cmd/xmem-vet -run attrinfer -fix-dry ./...)
if [ -n "$dry" ]; then
	echo "infer-validate: fix application is not idempotent:" >&2
	printf '%s\n' "$dry" >&2
	exit 1
fi

step "provenance: fixed example is byte-identical to the committed one"
cmp "$SCRATCH/$EXAMPLE" "$ROOT/$EXAMPLE"

step "simulator differential: tiled kernel + synthetic"
(cd "$ROOT" && $GO run ./cmd/xmem-sim -infer-smoke -workload gemm,libq)

step "simulator differential: the inferdemo example checks itself"
(cd "$ROOT" && $GO run ./examples/inferdemo -check > /dev/null)

echo "infer-validate: OK"
