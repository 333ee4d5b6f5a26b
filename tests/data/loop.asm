loop: JMP loop
