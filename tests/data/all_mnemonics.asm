# All five mnemonics, in mixed case, with labels, inline comments
# and blank lines: r0 = 2 * r1, then ask query r0.

start:  decjz r1 done   # count r1 down
        Inc r0
        INC R0          # two per unit

        jmp start
done:   QUERY r0 r2     # answer lands in r2
        halt
