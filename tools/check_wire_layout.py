#!/usr/bin/env python3
"""Cross-checks the declared wire layouts against the codec that ships them.

The declarative layout tables live in src/query/wire_layout.h (one
``// wire-layout: <frame> bytes=<N> magic=<XXXX>`` marker per table); the
hand-written encoder/decoder lives in src/query/wire.cc. The C++
static_asserts already force the codec's *constants* to match the tables,
but both sides are edited by the same hands — this linter re-derives the
layouts independently, straight from the text, and fails CI when:

  * a table has a gap, overlap, zero-size field, or wrong declared size;
  * an encoder's Put* call sequence (PutMagic=4, PutU32=4, push_back=1,
    PutU16=2, PutI32=4, PutF64=8, PutU64=8) disagrees with its table,
    field for field;
  * a frame's magic literal in wire.cc differs from the table marker;
  * the routing-peek offsets (PeekRequestSetHash / PeekRouteInfo) do not
    line up with the set_hash / new_hash / tile_id table fields;
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

# Bytes appended by each straight-line encoder call.
CALL_SIZES = {
    "PutMagic": 4,
    "PutU16": 2,
    "PutU32": 4,
    "PutI32": 4,
    "PutU64": 8,
    "PutF64": 8,
    "push_back": 1,
}

# frame name in the table marker -> (magic constant in wire.cc, encoder).
FRAMES = {
    "request": ("kRequestMagic", "EncodeRequest"),
    "response": ("kResponseMagic", "EncodeResponseHeader"),
    "delta": ("kDeltaRequestMagic", "EncodeDeltaRequest"),
    "tile": ("kTileRequestMagic", "EncodeTileRequest"),
    "stats_request": ("kStatsRequestMagic", "EncodeStatsRequest"),
    "stats_response": ("kStatsResponseMagic", "EncodeStatsResponse"),
    "circle": (None, None),  # payload record: no magic, inline encoders
}


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


def extract_function(cc_text: str, name: str) -> str:
    """The body of `name(...)` up to its closing brace (depth matched)."""
    m = re.search(rf"\b{name}\s*\([^;]*?\)\s*\{{", cc_text)
    if not m:
        fail(f"wire.cc: encoder {name} not found")
    depth, i = 1, m.end()
    while depth > 0 and i < len(cc_text):
        depth += {"{": 1, "}": -1}.get(cc_text[i], 0)
        i += 1
    return cc_text[m.end() : i - 1]


def straight_line_sizes(body: str) -> list[int]:
    """Sizes of the Put*/push_back calls before the first branch/loop."""
    branch = re.search(r"\n\s*(if|for|switch|while)\s*\(", body)
    prefix = body[: branch.start()] if branch else body
    sizes = []
    for call in re.finditer(r"\b(PutMagic|PutU16|PutU32|PutI32|PutU64|PutF64|push_back)\s*\(", prefix):
        sizes.append(CALL_SIZES[call.group(1)])
    return sizes


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
    for frame, (constant, _) in FRAMES.items():
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


def check_encoders(layouts: dict[str, Layout], cc_text: str) -> None:
    for frame, (_, encoder) in FRAMES.items():
        if encoder is None:
            continue
        sizes = straight_line_sizes(extract_function(cc_text, encoder))
        table = layouts[frame]
        expected = [f.size for f in table.fields]
        if sizes[: len(expected)] != expected:
            fail(
                f"{frame}: {encoder} emits field sizes "
                f"{sizes[:len(expected)]} but the table declares {expected}"
            )
        elif len(sizes) > len(expected) and frame not in ("response",):
            # Extra straight-line Put* calls past the declared header mean
            # the table no longer covers the whole fixed prefix. (The
            # response header is followed by a variable message insert,
            # never by straight-line Put* calls.)
            fail(
                f"{frame}: {encoder} emits {len(sizes)} fixed fields, the "
                f"table declares only {len(expected)}"
            )


def check_peeks(layouts: dict[str, Layout], layout_text: str,
                cc_text: str) -> None:
    request = {f.name: f for f in layouts["request"].fields}
    delta = {f.name: f for f in layouts["delta"].fields}
    tile = {f.name: f for f in layouts["tile"].fields}

    def constant(name: str) -> int:
        m = re.search(
            rf"constexpr std::size_t {name} = (\d+);", layout_text
        )
        if not m:
            fail(f"wire_layout.h: constant {name} not found")
            return -1
        return int(m.group(1))

    pairs = [
        ("kRequestSetHashOffset", request["set_hash"].offset),
        ("kDeltaNewHashOffset", delta["new_hash"].offset),
        ("kTileIdOffset", tile["tile_id"].offset),
        ("kRequestHeaderBytes", layouts["request"].declared_bytes),
        ("kResponseHeaderBytes", layouts["response"].declared_bytes),
        ("kDeltaHeaderBytes", layouts["delta"].declared_bytes),
        ("kTileHeaderBytes", layouts["tile"].declared_bytes),
        ("kStatsRequestBytes", layouts["stats_request"].declared_bytes),
        ("kStatsResponseBytes", layouts["stats_response"].declared_bytes),
        ("kCircleBytes", layouts["circle"].declared_bytes),
    ]
    for name, table_value in pairs:
        value = constant(name)
        if value >= 0 and value != table_value:
            fail(
                f"wire_layout.h: {name} = {value} but the layout table "
                f"says {table_value}"
            )

    # The routing contract: one peek offset serves request, delta (base)
    # and tile frames alike.
    if delta["base_hash"].offset != request["set_hash"].offset:
        fail("delta.base_hash must sit in the request.set_hash slot")
    if tile["set_hash"].offset != request["set_hash"].offset:
        fail("tile.set_hash must sit in the request.set_hash slot")

    # And the peek functions must actually read those named constants
    # (PeekRequestSetHash may instead delegate to PeekRouteInfo).
    for func, needed in [
        ("PeekRequestSetHash", [("kRequestSetHashOffset", "PeekRouteInfo")]),
        (
            "PeekRouteInfo",
            [
                ("kRequestSetHashOffset",),
                ("kDeltaNewHashOffset",),
                ("kTileIdOffset",),
            ],
        ),
    ]:
        body = extract_function(cc_text, func)
        for alternatives in needed:
            if not any(name in body for name in alternatives):
                fail(
                    f"wire.cc: {func} no longer reads "
                    f"{' or '.join(alternatives)} — the peek and the "
                    "layout table can drift apart"
                )


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
        check_encoders(layouts, cc_text)
        check_peeks(layouts, layout_text, cc_text)
        check_history(layouts, history, wire_h_text)
    return list(ERRORS)


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
            "swap two encoder fields",
            (layout_text, wire_h_text,
             cc_text.replace(
                 "PutI32(&out, request.width);\n  PutI32(&out, request.height);",
                 "PutF64(&out, request.domain.lo.x);\n  PutI32(&out, request.width);",
                 1)),
        ),
        (
            "retype a header field in the encoder",
            (layout_text, wire_h_text,
             cc_text.replace("PutU16(&out, 0);  // reserved",
                             "PutU32(&out, 0);  // reserved", 1)),
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
            "peek function rewritten with hard-coded offsets",
            (layout_text, wire_h_text,
             cc_text.replace("kTileIdOffset", "(68 + 8)")),
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
