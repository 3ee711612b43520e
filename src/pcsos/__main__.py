"""Run the command-line front end as `python -m pcsos`."""

from .cli import entry

if __name__ == "__main__":
    entry()
