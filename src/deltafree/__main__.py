"""``python -m deltafree``: the same entry point as the console script."""

from .cli import run

if __name__ == "__main__":
    run()
