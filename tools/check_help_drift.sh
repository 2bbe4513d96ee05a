#!/bin/sh
# Help-drift guard: every flag a CLI tool reads must be mentioned as
# `--flag` somewhere in the same source file (usage header, usage() text,
# or a doc comment). Catches the classic drift where a flag is added to
# the code but never to the help.
#
# Scans tools/*.cc for
# `flags.GetString("name", ...)` / GetInt / GetDouble / GetUint64 /
# `flags.Has("name")` and requires the literal `--name` in that file.
#
# Usage: sh tools/check_help_drift.sh   (from the repo root; exits 1 on drift)
set -eu

cd "$(dirname "$0")/.."

status=0
for file in tools/*.cc; do
    [ -f "$file" ] || continue
    # One flag name per line, e.g. `trace-out`.
    flags=$(grep -oE 'flags\.(GetString|GetInt|GetDouble|GetUint64|Has)\("[A-Za-z0-9_-]+"' "$file" \
        | sed 's/.*("//; s/"$//' | sort -u)
    for flag in $flags; do
        if ! grep -q -- "--$flag" "$file"; then
            echo "HELP DRIFT: $file reads --$flag but never documents it" >&2
            status=1
        fi
    done
done

if [ "$status" -ne 0 ]; then
    echo "help drift detected: document the flags above in their tool's usage text" >&2
else
    echo "help drift: OK (every flag read is documented in its tool)"
fi
exit "$status"
