#!/usr/bin/env python3
"""Checks the declared wire layouts and the codec's use of them.

The declarative layout tables live in src/query/wire_layout.h (one
``// wire-layout: <frame> bytes=<N> magic=<XXXX>`` marker per table); the
codec in src/query/wire.cc reads and writes every header field at its
table row, looked up by name at compile time, so it has no field
sequence of its own to check. This linter re-reads the tables straight
from the text and fails CI when:

  * a table has a gap, overlap, zero-size field, or wrong declared size;
  * the delta or tile table stops repeating the request prefix rows;
  * a frame's magic literal in wire.cc differs from the table marker;
  * the routing peek (PeekRouteInfo) stops looking up the set_hash /
    new_hash / tile_id rows by name, or spells out an offset;
  * the version-history table is not append-only monotonic, misses a
    version, or its last row disagrees with the live kWireVersion sizes.

Run ``--self-test`` to prove the checks can fail: it perturbs each
invariant in-memory and requires every perturbation to be caught.
"""

from __future__ import annotations

import argparse
import dataclasses
import pathlib
import re
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
WIRE_LAYOUT_H = REPO / "src" / "query" / "wire_layout.h"
WIRE_H = REPO / "src" / "query" / "wire.h"
WIRE_CC = REPO / "src" / "query" / "wire.cc"

# frame name in the table marker -> magic constant in wire.cc.
FRAMES = {
    "request": "kRequestMagic",
    "response": "kResponseMagic",
    "delta": "kDeltaRequestMagic",
    "tile": "kTileRequestMagic",
    "stats_request": "kStatsRequestMagic",
    "stats_response": "kStatsResponseMagic",
    "circle": None,  # payload record: no magic
}

# The rows PeekRouteInfo must look up by name.
PEEK_LOOKUPS = ['RequestRow("set_hash")', 'DeltaRow("new_hash")',
                'TileRow("tile_id")']


@dataclasses.dataclass
class Field:
    name: str
    offset: int
    size: int


@dataclasses.dataclass
class Layout:
    frame: str
    declared_bytes: int
    magic: str | None
    fields: list[Field]


def parse_layouts(layout_text: str) -> dict[str, Layout]:
    """Reads every ``// wire-layout:`` marked table out of wire_layout.h."""
    layouts: dict[str, Layout] = {}
    marker = re.compile(
        r"^// wire-layout: (\w+) bytes=(\d+) magic=(\w+)\s*$", re.M
    )
    row = re.compile(r'^\s*\{"(\w+)", (\d+), (\d+)\},\s*$')
    lines = layout_text.splitlines()
    for m in marker.finditer(layout_text):
        frame, declared, magic = m.group(1), int(m.group(2)), m.group(3)
        start = layout_text[: m.start()].count("\n") + 1
        fields: list[Field] = []
        in_table = False
        for line in lines[start:]:
            if "constexpr WireField" in line:
                in_table = True
                continue
            if in_table:
                r = row.match(line)
                if r:
                    fields.append(
                        Field(r.group(1), int(r.group(2)), int(r.group(3)))
                    )
                    continue
                if line.strip() == "};":
                    break
                fail(f"{frame}: unparseable table row {line!r}")
        layouts[frame] = Layout(
            frame, declared, None if magic == "none" else magic, fields
        )
    return layouts


def parse_history(layout_text: str) -> list[dict[str, int]]:
    """Reads the kWireVersionHistory rows (marker: wire-layout-history)."""
    m = re.search(
        r"^// wire-layout-history: columns=([\w,]+)$", layout_text, re.M
    )
    if not m:
        fail("wire_layout.h: missing wire-layout-history marker")
    columns = ["version"] + m.group(1).split(",")
    rows = []
    row_re = re.compile(r"^\s*\{(\d+(?:,\s*\d+)*)\},")
    for line in layout_text[m.end() :].splitlines():
        r = row_re.match(line)
        if r:
            values = [int(v) for v in r.group(1).split(",")]
            if len(values) != len(columns):
                fail(f"history row {line.strip()!r}: expected "
                     f"{len(columns)} columns")
            rows.append(dict(zip(columns, values)))
        elif line.strip() == "};":
            break
    if not rows:
        fail("wire_layout.h: empty version-history table")
    return rows


ERRORS: list[str] = []


def fail(message: str) -> None:
    ERRORS.append(message)


def check_tables(layouts: dict[str, Layout]) -> None:
    for want in FRAMES:
        if want not in layouts:
            fail(f"wire_layout.h: no layout table for frame '{want}'")
    for layout in layouts.values():
        expected = 0
        for f in layout.fields:
            if f.size <= 0:
                fail(f"{layout.frame}.{f.name}: zero/negative size")
            if f.offset != expected:
                fail(
                    f"{layout.frame}.{f.name}: offset {f.offset}, expected "
                    f"{expected} (gap or overlap — offsets must be "
                    "contiguous from 0)"
                )
            expected = f.offset + f.size
        if expected != layout.declared_bytes:
            fail(
                f"{layout.frame}: fields sum to {expected} bytes but the "
                f"marker declares bytes={layout.declared_bytes}"
            )
        if layout.magic is not None:
            first = layout.fields[0]
            if first.name != "magic" or first.size != 4:
                fail(f"{layout.frame}: first field must be a 4-byte magic")


def check_magics(layouts: dict[str, Layout], cc_text: str) -> None:
    for frame, constant in FRAMES.items():
        if constant is None:
            continue
        m = re.search(
            rf"constexpr char {constant}\[4\] = \{{'(.)', '(.)', '(.)', '(.)'\}};",
            cc_text,
        )
        if not m:
            fail(f"wire.cc: magic constant {constant} not found")
            continue
        literal = "".join(m.groups())
        declared = layouts[frame].magic
        if literal != declared:
            fail(
                f"{frame}: wire.cc {constant} is '{literal}' but the table "
                f"declares magic={declared}"
            )


def check_prefix_and_peek(layouts: dict[str, Layout], cc_text: str) -> None:
    request = [(f.name, f.offset, f.size) for f in layouts["request"].fields]
    delta = [(f.name, f.offset, f.size) for f in layouts["delta"].fields]
    tile = [(f.name, f.offset, f.size) for f in layouts["tile"].fields]

    # The codec writes one prefix for all three request kinds: a tile
    # header holds the whole request header, and a delta repeats it up to
    # the set_hash slot, where its base_hash sits (the routing contract:
    # one peek offset serves every request kind).
    slot = next(i for i, row in enumerate(request) if row[0] == "set_hash")
    if tile[: len(request)] != request:
        fail("tile table must repeat the request table row for row")
    if delta[:slot] != request[:slot]:
        fail("delta table must repeat the request prefix row for row")
    if delta[slot] != ("base_hash",) + request[slot][1:]:
        fail("delta.base_hash must sit in the request.set_hash slot")

    m = re.search(r"PeekRouteInfo\(std::span<const uint8_t> bytes\) \{\n"
                  r"(.*?)\n\}\n", cc_text, re.S)
    if not m:
        fail("wire.cc: PeekRouteInfo not found")
        return
    body = m.group(1)
    for lookup in PEEK_LOOKUPS:
        if lookup not in body:
            fail(f"wire.cc: PeekRouteInfo no longer reads {lookup} — the "
                 "peek and the layout table can drift apart")
    literal = re.search(r"(?<![\w.])\d+(?![\w.])", body)
    if literal:
        fail(f"wire.cc: PeekRouteInfo spells out the number "
             f"{literal.group(0)} instead of reading a table row")


def check_history(layouts: dict[str, Layout], history: list[dict[str, int]],
                  wire_h_text: str) -> None:
    m = re.search(r"constexpr uint32_t kWireVersion = (\d+);", wire_h_text)
    if not m:
        fail("wire.h: kWireVersion not found")
        return
    live_version = int(m.group(1))

    versions = [row["version"] for row in history]
    if versions != sorted(versions) or len(set(versions)) != len(versions):
        fail(f"history versions {versions} must be strictly increasing")
    if versions != list(range(versions[0], versions[-1] + 1)):
        fail(f"history versions {versions} must cover every version "
             "(append-only, no gaps)")
    if versions[-1] != live_version:
        fail(
            f"history's last row is v{versions[-1]} but wire.h publishes "
            f"kWireVersion = {live_version}"
        )

    columns = [c for c in history[0] if c != "version"]
    for col in columns:
        values = [row[col] for row in history]
        # 0 means "frame kind not yet defined": once a frame exists its
        # size may only grow (layouts are append-only within a version
        # line; a shrink would mean a silently redefined old version).
        born = False
        previous = 0
        for version, value in zip(versions, values):
            if born and value < previous:
                fail(
                    f"history column {col}: v{version} shrinks to {value} "
                    f"from {previous} — published layouts are append-only"
                )
            if value > 0:
                born = True
                previous = value

    last = history[-1]
    live = {
        "request": layouts["request"].declared_bytes,
        "response": layouts["response"].declared_bytes,
        "stats_request": layouts["stats_request"].declared_bytes,
        "stats_response": layouts["stats_response"].declared_bytes,
        "delta": layouts["delta"].declared_bytes,
        "tile": layouts["tile"].declared_bytes,
    }
    for col, want in live.items():
        if last[col] != want:
            fail(
                f"history v{last['version']} publishes {col}={last[col]} "
                f"but the live table declares {want}"
            )


def run_checks(layout_text: str, wire_h_text: str, cc_text: str) -> list[str]:
    ERRORS.clear()
    layouts = parse_layouts(layout_text)
    if not ERRORS:
        check_tables(layouts)
    if not ERRORS or all("table row" not in e for e in ERRORS):
        history = parse_history(layout_text)
        check_magics(layouts, cc_text)
        check_prefix_and_peek(layouts, cc_text)
        check_history(layouts, history, wire_h_text)
    return list(ERRORS)


def edit_table(layout_text: str, frame: str, old: str, new: str) -> str:
    """Applies one replacement inside the `frame` table only."""
    start = layout_text.index(f"wire-layout: {frame} ")
    end = layout_text.index("};", start)
    return (layout_text[:start]
            + layout_text[start:end].replace(old, new, 1)
            + layout_text[end:])


def self_test(layout_text: str, wire_h_text: str, cc_text: str) -> int:
    """Each perturbation must make run_checks report at least one error."""
    clean = run_checks(layout_text, wire_h_text, cc_text)
    if clean:
        print("self-test: pristine tree must pass, but got:")
        for e in clean:
            print(f"  {e}")
        return 1

    live = re.search(r"constexpr uint32_t kWireVersion = (\d+);", wire_h_text)
    live_version = int(live.group(1)) if live else 0
    perturbations = [
        (
            "shift the set_hash offset",
            (layout_text.replace('{"set_hash", 52, 8},',
                                 '{"set_hash", 56, 8},'),
             wire_h_text, cc_text),
        ),
        (
            "shrink the stats response declared size",
            (layout_text.replace("wire-layout: stats_response bytes=92",
                                 "wire-layout: stats_response bytes=84"),
             wire_h_text, cc_text),
        ),
        (
            "swap two rows of the tile prefix",
            (edit_table(layout_text, "tile",
                        '{"width", 12, 4},\n    {"height", 16, 4},',
                        '{"height", 12, 4},\n    {"width", 16, 4},'),
             wire_h_text, cc_text),
        ),
        (
            "change a frame magic in the codec",
            (layout_text, wire_h_text,
             cc_text.replace("{'R', 'N', 'W', 'L'}", "{'R', 'N', 'W', 'X'}")),
        ),
        (
            "rewrite a published history row",
            (layout_text.replace("{4, 68, 16, 12, 68, 76, 0},",
                                 "{4, 68, 16, 12, 92, 76, 0},"),
             wire_h_text, cc_text),
        ),
        (
            "drop a history version",
            (layout_text.replace("{3, 68, 16, 12, 44, 0, 0},", ""),
             wire_h_text, cc_text),
        ),
        (
            "bump kWireVersion without a history row",
            (layout_text,
             wire_h_text.replace(f"kWireVersion = {live_version};",
                                 f"kWireVersion = {live_version + 1};"),
             cc_text),
        ),
        (
            "peek stops looking up a row by name",
            (layout_text, wire_h_text,
             cc_text.replace('TileRow("tile_id")',
                             'wl::WireField{"tile_id", 76, 4}')),
        ),
        (
            "peek reads a field at a spelled-out offset",
            (layout_text, wire_h_text,
             cc_text.replace("Get(h, kTileId)", "LoadLe(h + 76, 4)")),
        ),
    ]
    failures = 0
    for label, (lt, wh, cc) in perturbations:
        if (lt, wh, cc) == (layout_text, wire_h_text, cc_text):
            print(f"self-test: perturbation '{label}' was a no-op edit")
            failures += 1
            continue
        errors = run_checks(lt, wh, cc)
        if not errors:
            print(f"self-test: perturbation '{label}' was NOT caught")
            failures += 1
        else:
            print(f"self-test: '{label}' caught: {errors[0]}")
    if failures:
        print(f"self-test: {failures} perturbation(s) escaped the linter")
        return 1
    print(f"self-test: all {len(perturbations)} perturbations caught")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="perturb each invariant in-memory and require a failure",
    )
    args = parser.parse_args()

    layout_text = WIRE_LAYOUT_H.read_text()
    wire_h_text = WIRE_H.read_text()
    cc_text = WIRE_CC.read_text()

    if args.self_test:
        return self_test(layout_text, wire_h_text, cc_text)

    errors = run_checks(layout_text, wire_h_text, cc_text)
    if errors:
        print(f"check_wire_layout: {len(errors)} error(s)")
        for e in errors:
            print(f"  {e}")
        return 1
    print(
        f"check_wire_layout: {len(parse_layouts(layout_text))} frame "
        "layouts consistent with the codec"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
