#!/usr/bin/env bash
# Check-only clang-format lint over an explicit whitelist.
#
# The repo predates .clang-format, so blanket enforcement would reformat
# thousands of lines and poison blame. Instead, files are opted in here as
# they are brought into exact clang-format compliance; CI fails if a
# whitelisted file drifts. Add files to WHITELIST when you touch them and
# they are clean under `clang-format --dry-run`.
#
# Usage: scripts/check_format.sh [clang-format-binary]
set -u

cd "$(dirname "$0")/.."

CLANG_FORMAT="${1:-${CLANG_FORMAT:-clang-format}}"

WHITELIST=(
)

if ! command -v "$CLANG_FORMAT" > /dev/null 2>&1; then
  echo "check_format: '$CLANG_FORMAT' not found (set \$CLANG_FORMAT or pass" \
       "the binary as the first argument)" >&2
  exit 1
fi

echo "check_format: using $("$CLANG_FORMAT" --version)"
status=0
for file in "${WHITELIST[@]}"; do
  if [ ! -f "$file" ]; then
    echo "check_format: whitelisted file missing: $file" >&2
    status=1
    continue
  fi
  if ! "$CLANG_FORMAT" --dry-run --Werror --style=file "$file"; then
    echo "check_format: $file is not clang-format clean" >&2
    status=1
  fi
done

if [ "$status" -eq 0 ]; then
  echo "check_format: OK (${#WHITELIST[@]} files)"
fi
exit "$status"
