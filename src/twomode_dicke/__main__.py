"""``python -m twomode_dicke``: the ``twomode-dicke`` command."""

from .cli import entrypoint

if __name__ == "__main__":
    entrypoint()
