"""Run every ```python block of README.md, in order, each in a fresh namespace.

A block that raises (say, an import of a pruned or renamed export) fails
the run with its traceback.  Run from the repository root:

    PYTHONPATH=src python scripts/readme_blocks.py
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def main() -> int:
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.S | re.M)
    if not blocks:
        raise SystemExit("README.md has no python blocks")
    for i, block in enumerate(blocks, start=1):
        exec(compile(block, f"README.md python block {i}", "exec"), {"__name__": "__readme__"})
    print(f"{len(blocks)} README python blocks ran")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
