"""``python -m dqc``: the dqc command line."""

from .cli import entry

# spawned pool workers import the main module as __mp_main__
if __name__ == "__main__":
    entry()
