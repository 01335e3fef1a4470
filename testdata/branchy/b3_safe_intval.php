<?php
$r0 = intval($_GET['id']);
if ($c0_0 == 1) {
    $r0 = $r0 . '-0';
} else {
    $r0 = htmlspecialchars($r0);
}
if ($c0_1 == 2) {
    $r0 = $r0 . '-1';
}
if ($c0_2 == 3) {
    $r0 = $r0 . '-2';
} else {
    $r0 = htmlspecialchars($r0);
}
echo $r0;
mysql_query("SELECT v FROM t0 WHERE k='" . $r0 . "'");
echo '<p>' . $r0 . '</p>';
$r1 = intval($_POST['page']);
if ($c1_0 == 4) {
    $r1 = $r1 . '-0';
}
if ($c1_1 == 5) {
    $r1 = $r1 . '-1';
} else {
    $r1 = htmlspecialchars($r1);
}
echo $r1;
mysql_query("SELECT v FROM t1 WHERE k='" . $r1 . "'");
echo $r1;
echo '<p>' . $r1 . '</p>';
?>
