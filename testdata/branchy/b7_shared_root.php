<?php
$r0 = $_GET['user'];
if ($c0 == 2) {
    $r0 = $r0 . '-0';
}
if ($c1 == 4) {
    $r0 = $r0 . '-1';
} else {
    $r0 = htmlspecialchars($r0);
}
$r1 = $r0;
$r2 = '<b>' . $r1 . '</b>';
echo $r2;
echo $r1;
mysql_query("SELECT v FROM t0 WHERE k='" . $r1 . "'");
$r3 = $_POST['note'];
if ($c2 == 6) {
    $r3 = $r3 . '-2';
} else {
    $r3 = htmlspecialchars($r3);
}
if ($c3 == 8) {
    $r3 = $r3 . '-3';
}
echo $r3 . $r2;
mysql_query("SELECT v FROM t1 WHERE k='" . $r3 . "'");
?>
