"""README's examples work as written: its two python blocks run in order in one
namespace, and its two JSON configurations load with `parse_config`."""

import json
import re
from pathlib import Path

from gtiframes.configio import parse_config

README = Path(__file__).resolve().parent.parent / "README.md"


def fenced_blocks(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```", README.read_text(), re.M | re.S)


def test_python_examples_run_in_order():
    blocks = fenced_blocks("python")
    assert len(blocks) == 2
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["verdict"].passed


def test_json_configurations_load():
    docs = fenced_blocks("json")
    assert len(docs) == 2
    systems = [parse_config(json.loads(doc)) for doc in docs]
    assert [len(s.layers[0].generators) for s in systems] == [1, 4]
