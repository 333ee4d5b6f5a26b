# The pairing prelude of curry(e, 3): rewrites r0 = b into
# r0 = pair(3, b) = T(3 + b) + b, T the triangle numbers, in unary.
# It is machine.pairing_prelude(3) with labels; its steps are
# machine.curry_overhead(3, b).
#
#   python3 -m fanlab.cli eval scripts/asm/pair.asm 4
#
# Register map:
#   r0  input b, then the output
#   r1  m = 3 + b, the countdown of the triangle loop
#   r2  copy of b, then the running triangle number
#   r3  scratch buffer for the drain-and-restore copy of r1

# r0 (= b) drains into r1 and r2.
split:  DECJZ r0 back
        INC r1
        INC r2
        JMP split
# r2 moves back into r0; now r0 = r1 = b.
back:   DECJZ r2 plus
        INC r0
        JMP back
plus:   INC r1
        INC r1
        INC r1
# T(m) into r2: m rounds, each adding the count left in r1.  A round moves
# r1 out into r3 (and onto r2) and back, so each round adds one less.
tri:    DECJZ r1 addt
        INC r2
out:    DECJZ r1 in
        INC r3
        INC r2
        JMP out
in:     DECJZ r3 tri
        INC r1
        JMP in
# r0 += r2: r0 = T(m) + b = pair(3, b).
addt:   DECJZ r2 done
        INC r0
        JMP addt
done:
