#!/usr/bin/env python3
"""Splices the harness outputs in results/quick/ into EXPERIMENTS.md.

Each `<!-- NAME -->` marker there is followed by one ```text block per
harness output listed below; the blocks are replaced, so the script can be
rerun whenever results/quick/ is regenerated.
"""
import pathlib, re

root = pathlib.Path(__file__).resolve().parent.parent
quick = root / "results" / "quick"

def tables(fname):
    text = (quick / fname).read_text()
    # Drop CSV blocks; keep the aligned tables.
    out, skip = [], False
    for line in text.splitlines():
        if line.startswith("# CSV"):
            skip = True
            continue
        if line.startswith("== "):
            skip = False
        if not skip:
            out.append(line)
    body = "\n".join(out).strip()
    return "```text\n" + body + "\n```"

md = (root / "EXPERIMENTS.md").read_text()
subs = {
    "<!-- FIG5_TABLES -->": ["fig5.txt"],
    "<!-- FIG6_TABLES -->": ["fig6.txt"],
    "<!-- FIG7_TABLES -->": ["fig7.txt"],
    "<!-- FIG8AB_TABLES -->": ["fig8a.txt", "fig8b.txt"],
    "<!-- FIG8C_TABLE -->": ["fig8c.txt"],
    "<!-- COMPARE_TABLE -->": ["compare_related.txt"],
    "<!-- DELAY_TABLE -->": ["delay_sweep.txt"],
    "<!-- ABLATION_TABLES -->": ["ablations.txt"],
}
for marker, files in subs.items():
    blocks = r"(?:\n+```text\n.*?\n```){%d}" % len(files)
    filled = marker + "\n" + "\n\n".join(tables(f) for f in files)
    md, n = re.subn(re.escape(marker) + blocks, lambda _: filled, md, flags=re.S)
    if n != 1:
        print("marker", marker, "matched", n, "times")
(root / "EXPERIMENTS.md").write_text(md)
print("EXPERIMENTS.md filled")
