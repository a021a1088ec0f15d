"""``python -m zenojump``: the command-line front end."""

from .cli import console_entry

console_entry()
