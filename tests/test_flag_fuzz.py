"""Any value of a numeric flag makes the CLI exit 0, 2, 3 or 4, never a traceback.

Each example draws one leaf command (a command, or a command and its mode, such
as `analyze lds`; a test pins the list to the parser's leaves) and one of its
numeric flags (every `int` or `float` argument the leaf's parser declares, the
global `--seed` and `--threads` included, plus `--res`), and a `--family` where
the leaf takes one, and runs the command in-process on the fuzzers' saved 32x32
bundle and checkpoint (`fuzz_inputs`), with `--steps 2` where it trains.  The
value comes from the extremes of the flag's type (0, +-tiny, +-huge, nan, inf,
10**400, negatives, and text an int flag cannot parse) or from its valid range,
0 to about twice its default.  Run-length flags, whose large valid values only
run long, draw 0, 1, negatives and the value the command runs with otherwise.
No command may emit a Python warning, and an exit 2, 3 or 4 prints exactly one
stderr line.
"""

import argparse
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from renov import cli

RUN_LENGTH = {"steps", "views", "res", "queries", "batch", "hidden"}
INT_EXTREMES = ("0", "-1", "-7", str(2**31), str(2**63), str(-2**63 - 1), str(10**18),
                str(10**400), str(-10**400), "1e-300", "2.5", "nan", "inf")
FLOAT_EXTREMES = ("0", "-0.0", "5e-324", "-5e-324", "1e-300", "-1", "1e18", "-1e18",
                  "1.7976931348623157e308", "-1.7976931348623157e308", str(10**400),
                  "nan", "inf", "-inf")


def _commands(scene: Path, ckpt: Path, out: Path) -> dict[str, list[str]]:
    """The argv after the global flags of each leaf command; every output lands under out."""
    s = ["--scene", str(scene)]
    return {
        "scene-gen": ["scene-gen", "--out", str(out / "sg")],
        "features": ["features", *s, "--out", str(out / "feat")],
        "warp": ["warp", *s, "--refs", "7,9", "--target", "8", "--payload", "features",
                 "--out", str(out / "warp")],
        "condition": ["condition", *s, "--refs", "7,9", "--target", "8", "--out", str(out / "cond")],
        "analyze corr": ["analyze", "corr", *s, "--save-maps", "2", "--out", str(out / "corr")],
        "analyze semcorr": ["analyze", "semcorr", *s, "--save-maps", "2",
                            "--out", str(out / "semcorr")],
        "analyze lds": ["analyze", "lds", *s, "--r-far", "2", "--out", str(out / "lds")],
        "probe train": ["probe", "train", *s, "--ckpt", str(out / "ckpt"), "--steps", "2"],
        "probe eval": ["probe", "eval", *s, "--ckpt", str(ckpt), "--out", str(out / "eval.json")],
        "robustness": ["robustness", *s, "--steps", "2", "--out", str(out / "robust.json")],
    }


def _numeric_flags(parser: argparse.ArgumentParser) -> dict[str, argparse.Action]:
    return {a.option_strings[0]: a for a in parser._actions
            if a.option_strings and (a.type in (int, float) or a.dest == "res")}


GLOBAL_FLAGS = _numeric_flags(cli.build_parser())


def _value(draw, flag: str, action: argparse.Action, command: list[str]) -> str:
    default = command[command.index(flag) + 1] if flag in command else action.default
    if action.dest in RUN_LENGTH:
        side = st.sampled_from(["0", "1", "-1", "-9", str(default).split("x")[0]])
        return f"{draw(side)}x{draw(side)}" if action.dest == "res" else draw(side)
    default = float((default[0] if isinstance(default, list) else default) or 0)
    if action.type is int:
        valid = st.integers(0, 2 * int(default) + 2).map(str)
        return draw(st.sampled_from(INT_EXTREMES) | valid)
    valid = st.floats(0, 2 * default + 1).map(repr)
    return draw(st.sampled_from(FLOAT_EXTREMES) | valid)


def test_every_leaf_command_is_fuzzed(cli_leaves):
    assert set(_commands(Path("scene"), Path("ckpt"), Path("out"))) == set(cli_leaves)


@settings(max_examples=250, deadline=None)
@given(data=st.data())
def test_numeric_flag_values_exit_cleanly(fuzz_inputs, checked_run, cli_leaves, tmp_path_factory,
                                          data):
    scene, ckpt = fuzz_inputs
    commands = _commands(scene, ckpt, tmp_path_factory.mktemp("flag_out"))
    leaf = data.draw(st.sampled_from(sorted(commands)), label="command")
    command, parser = commands[leaf], cli_leaves[leaf]
    local = _numeric_flags(parser)
    flag = data.draw(st.sampled_from(sorted(GLOBAL_FLAGS.keys() | local.keys())), label="flag")
    action = GLOBAL_FLAGS.get(flag) or local[flag]
    setting = f"{flag}={_value(data.draw, flag, action, command)}"  # -5e-324 is no flag then
    if flag in GLOBAL_FLAGS:
        argv = [setting, *(["--seed", "1"] if flag != "--seed" else []), *command]
    elif flag in command:
        argv = ["--seed", "1", *command]
        argv[argv.index(flag):argv.index(flag) + 2] = [setting]
    else:
        argv = ["--seed", "1", *command, setting]
    family = parser._option_string_actions.get("--family")
    if family is not None:  # the random family is the only reader of --channels
        argv.append(f"--family={data.draw(st.sampled_from(family.choices), label='family')}")
    code, err, caught = checked_run(*argv)
    assert code in (0, 2, 3, 4), argv
    assert not caught, (argv, caught)
    assert code == 0 or len(err) == 1, (argv, err)
