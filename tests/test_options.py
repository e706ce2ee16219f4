import re
from dataclasses import fields
from pathlib import Path

import qhinf
from qhinf.options import NumericOptions


def test_every_option_is_read():
    # a field that no module reads is dead state: changing it changes nothing
    src = Path(qhinf.__file__).parent
    text = "".join(p.read_text() for p in sorted(src.glob("*.py"))
                   if p.name != "options.py")
    unread = [f.name for f in fields(NumericOptions)
              if not re.search(rf"\.{f.name}\b", text)]
    assert unread == []
